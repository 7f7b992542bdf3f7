//! `serve_mix`: warm in-memory `LiveEngine`s answering one client's
//! requests. A request is every query of the mixed set on one tree, each a
//! `snapshot().run(q)`, in a seeded shuffle, so every request has the same
//! mix of query kinds.
//!
//! A run serves [`TREES`] trees drawn from its seed, one engine each, in
//! seeded shuffles of complete rounds: a request's cost varies by ±15%
//! from tree to tree, so a run that averages over many trees reads the
//! code's cost rather than one tree's.

use crate::layers::{answer_metrics, artifact_metrics, overhead_pct, prebuild};
use crate::stats::{mean, median, peak_rss_mb, per_second, quantile, HostSpeed};
use crate::trace::Tracer;
use crate::{inputs, Config, Metrics, Outcome, SETUPS};
use cpdb_engine::{Answer, CacheStats, ConsensusEngine, EngineError, Obs, Query};
use cpdb_live::LiveEngine;
use rand::prelude::*;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Trees (and warm engines) a run serves.
const TREES: usize = 16;

/// The percentile `op_tail_ms` reports: the highest one with at least ten
/// requests beyond it in a run of 50 requests or more.
const TAIL: f64 = 0.8;

/// The `k`s whose rank contexts a query set needs.
fn ks(queries: &[Query]) -> Vec<usize> {
    let set: BTreeSet<usize> = queries
        .iter()
        .filter_map(|q| match q {
            Query::TopK { k, .. } => Some(*k),
            Query::Baseline { kind } => Some(kind.k()),
            _ => None,
        })
        .collect();
    set.into_iter().collect()
}

/// One measured phase: read and request latencies, failed reads, and the
/// host's speed over the phase.
struct Phase {
    read_ms: Vec<f64>,
    /// When each read ran (see [`HostSpeed::now`]).
    read_at: Vec<f64>,
    request_ms: Vec<f64>,
    request_at: Vec<f64>,
    failed: u64,
    speed: HostSpeed,
}

impl Phase {
    /// Read and request latencies at the reference host speed.
    fn scaled(&self) -> (Vec<f64>, Vec<f64>) {
        (
            self.speed.scale_each(&self.read_ms, &self.read_at),
            self.speed.scale_each(&self.request_ms, &self.request_at),
        )
    }
}

/// Serves requests until `length` has passed. A request is every query on
/// one tree, in a seeded shuffle; the trees take turns in seeded shuffles
/// of complete rounds, so every request has the same mix of queries and
/// every tree serves as often as the others.
fn measure(
    lives: &[LiveEngine],
    queries: &[Query],
    reference: &[Vec<Result<Answer, EngineError>>],
    rng: &mut StdRng,
    tracer: &mut Tracer,
    length: Duration,
) -> Phase {
    let mut phase = Phase {
        read_ms: Vec::new(),
        read_at: Vec::new(),
        request_ms: Vec::new(),
        request_at: Vec::new(),
        failed: 0,
        speed: HostSpeed::new(2),
    };
    let mut trees: Vec<usize> = Vec::new();
    let mut order: Vec<usize> = (0..queries.len()).collect();
    let start = Instant::now();
    while start.elapsed() < length {
        if trees.is_empty() {
            trees = (0..lives.len()).collect();
            trees.shuffle(rng);
        }
        let tree = trees.pop().expect("refilled above");
        order.shuffle(rng);
        let op = phase.request_ms.len() as u64;
        let request = tracer.open(op, None, "request", "");
        let request_at = phase.speed.now();
        let mut request_ms = 0.0;
        for &i in &order {
            let query = &queries[i];
            phase.speed.tick();
            let at = phase.speed.now();
            let t0 = Instant::now();
            let read = tracer.open(op, Some(request), "read", "");
            let snapshot = lives[tree].snapshot();
            let answer = tracer.time(op, Some(read), "answer", inputs::family(query), || {
                snapshot.run(query)
            });
            tracer.close(read);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            phase.read_ms.push(ms);
            phase.read_at.push(at + ms / 2e3);
            request_ms += ms;
            if answer.is_err() || answer != reference[tree][i] {
                phase.failed += 1;
            }
        }
        tracer.close(request);
        phase.request_ms.push(request_ms);
        // The request's midpoint, not counting the samples taken inside it.
        phase
            .request_at
            .push(request_at + (phase.speed.now() - request_at) / 2.0);
    }
    phase.speed.sample(2);
    phase
}

/// A warm engine on tree `j`: built, its artifacts built through the
/// public builders (inside spans when tracing), then every query answered
/// once.
fn warm_engine(
    cfg: &Config,
    j: usize,
    queries: &[Query],
    obs: &Obs,
    tracer: &mut Tracer,
    op: u64,
) -> (ConsensusEngine, Vec<Result<Answer, EngineError>>) {
    let seed = inputs::tree_seed(cfg.seed, j);
    let engine = inputs::engine(inputs::tree(seed), seed, obs.clone());
    if tracer.enabled() {
        prebuild(tracer, op, None, &engine, &ks(queries));
    }
    let answers = queries.iter().map(|q| engine.run(q)).collect();
    (engine, answers)
}

pub fn run(cfg: &Config) -> (Outcome, Tracer) {
    let queries = inputs::mixed_queries();
    let mut tracer = Tracer::new(cfg.trace);
    let obs = if cfg.trace {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    let mut failed = 0;
    let mut setup_s = Vec::new();
    let mut reference: Vec<Vec<Result<Answer, EngineError>>> = Vec::new();
    let mut engines = Vec::new();
    for i in 0..SETUPS {
        engines.clear(); // one set of warm engines alive at a time
        // Set-up time is the engine builds alone, scaled by the host speed
        // sampled between them.
        let mut speed = HostSpeed::new(2);
        let mut secs = 0.0;
        let mut warm = Vec::with_capacity(TREES);
        for j in 0..TREES {
            let t = Instant::now();
            warm.push(warm_engine(cfg, j, &queries, &obs, &mut tracer, i as u64));
            secs += t.elapsed().as_secs_f64();
            speed.sample(2);
        }
        setup_s.push(secs * speed.scale());
        for (j, (engine, answers)) in warm.into_iter().enumerate() {
            failed += answers.iter().filter(|a| a.is_err()).count() as u64;
            // The first set-up records the reference; later ones must agree.
            match reference.get(j) {
                None => reference.push(answers),
                Some(r) => failed += r.iter().zip(&answers).filter(|(a, b)| a != b).count() as u64,
            }
            engines.push(engine);
        }
    }
    let lives: Vec<LiveEngine> = engines.into_iter().map(LiveEngine::new).collect();

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5e7e_0000_0000_0001);
    let (untraced_len, traced_len) = cfg.phases();
    let base = measure(
        &lives,
        &queries,
        &reference,
        &mut rng,
        &mut Tracer::new(false),
        untraced_len,
    );

    let mut m = Metrics::default();
    let mut attempted = base.read_ms.len() as u64;
    failed += base.failed;
    let (reads, requests) = base.scaled();
    m.set("setup_s", median(&setup_s));
    m.set("ops_per_s", per_second(&requests));
    m.set("op_p50_ms", median(&requests));
    m.set("op_tail_ms", quantile(&requests, TAIL));
    m.set("read_qps", per_second(&reads));
    m.set("read_p50_ms", median(&reads));
    m.set("read_p99_ms", quantile(&reads, 0.99));
    m.set("host.kernel_ms", base.speed.kernel_ms());

    if let Some(len) = traced_len {
        let stats =
            || -> Vec<CacheStats> { lives.iter().map(|l| l.snapshot().cache_stats()).collect() };
        let (stats0, obs0) = (stats(), obs.snapshot());
        let traced = measure(&lives, &queries, &reference, &mut rng, &mut tracer, len);
        let (stats1, obs1) = (stats(), obs.snapshot());
        attempted += traced.read_ms.len() as u64;
        failed += traced.failed;
        let read_ms = tracer.total_ms("read", "");
        answer_metrics(&mut m, &tracer, read_ms);
        artifact_metrics(&mut m, &tracer, (&stats0, &stats1), (&obs0, &obs1));
        m.set(
            "trace.overhead_pct",
            overhead_pct(
                mean(&requests),
                mean(&traced.scaled().1),
            ),
        );
        let answered = tracer.total_ms("answer", "*");
        m.set(
            "trace.unattributed_pct",
            (read_ms - answered) / read_ms * 100.0,
        );
    }
    m.set("peak_rss_mb", peak_rss_mb());
    (
        Outcome {
            attempted,
            failed,
            metrics: m,
        },
        tracer,
    )
}
