//! `recover`: restart and replica catch-up from prepared primaries, each
//! holding a snapshot plus a 31-record WAL tail — the longest tail replayed
//! at the default compaction cadence of 32. Each operation is a pair on one
//! primary: (a) `LiveEngine::open` on its store, then (b) a cold
//! `Follower::open` + `sync` from the shipped anchor and segment into fresh
//! directories.
//!
//! A run prepares [`TREES`] primaries on trees drawn from its seed and
//! visits them in seeded shuffles of complete rounds, so a run averages
//! over trees rather than reading one tree's cost.

use crate::inputs::{self, DeltaStream};
use crate::stats::{mean, median, peak_rss_mb, per_second, quantile, HostSpeed};
use crate::trace::Tracer;
use crate::vfs::{take_thread_io, CountingVfs};
use crate::write::newest_snapshot_bytes;
use crate::{layers, Config, Metrics, Outcome, SETUPS};
use cpdb_engine::{Answer, ConsensusEngine, EngineError, Obs, Query, TreeDelta};
use cpdb_live::{LiveEngine, Snapshot, StoreOptions};
use cpdb_replica::{check_divergence, Follower, Primary, Transport};
use cpdb_store::{std_vfs, Store, Vfs};
use rand::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Prepared primaries (one tree each) a run recovers.
const TREES: usize = 8;

/// WAL records behind the snapshot: one short of the default cadence.
const TAIL: usize = 31;

/// The percentile `op_tail_ms` reports: the highest one with at least ten
/// pairs beyond it in a run of 50 pairs or more.
const TAIL_Q: f64 = 0.8;

/// The prepared primary, closed: its store and outbox on disk, plus the
/// writer's final epoch and answers to check recoveries against.
struct Prepared {
    store: PathBuf,
    outbox: PathBuf,
    deltas: Vec<(&'static str, TreeDelta)>,
    reference: Snapshot,
    answers: Vec<Result<Answer, EngineError>>,
    ship_ms: f64,
}

/// Set-up `i` of the primary on tree `j`.
fn prepare(cfg: &Config, i: usize, j: usize, reads: &[Query], vfs: Arc<dyn Vfs>) -> Prepared {
    let store = cfg.dir.join(format!("primary-{i}-{j}"));
    let outbox = cfg.dir.join(format!("outbox-{i}-{j}"));
    let seed = inputs::tree_seed(cfg.seed, j);
    let engine = inputs::engine(inputs::tree(seed), seed, Obs::disabled());
    for q in reads {
        let _ = engine.run(q);
    }
    let options = StoreOptions {
        vfs,
        ..StoreOptions::default()
    };
    let live = LiveEngine::new_durable_with(engine, &store, options).expect("fresh store");
    let primary = Primary::attach(live, std_vfs(), &outbox).expect("fresh outbox");
    primary.ship().expect("anchor ship");
    let mut stream = DeltaStream::new(seed);
    let mut deltas = Vec::with_capacity(TAIL);
    for _ in 0..TAIL {
        let (kind, delta) = stream.next(primary.snapshot().tree());
        primary.apply(&delta).expect("stream deltas are valid");
        deltas.push((kind, delta));
    }
    let t = Instant::now();
    primary.ship().expect("segment ship");
    let ship_ms = t.elapsed().as_secs_f64() * 1e3;
    let reference = primary.snapshot();
    let answers = reads.iter().map(|q| reference.run(q)).collect();
    Prepared {
        store,
        outbox,
        deltas,
        reference,
        answers,
        ship_ms,
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .map(|md| md.len())
        .sum()
}

struct Phase {
    pair_ms: Vec<f64>,
    open_ms: Vec<f64>,
    /// When each open and catch-up ran (see [`HostSpeed::now`]).
    open_at: Vec<f64>,
    catchup_ms: Vec<f64>,
    catchup_at: Vec<f64>,
    failed: u64,
    /// Traced only: per replayed record `(kept, patched, invalidated)`.
    decisions: (usize, usize, usize),
    /// Traced only: the follower's WAL fsyncs and bytes in `sync`.
    sync_fsyncs: u64,
    sync_bytes: u64,
    speed: HostSpeed,
}

impl Phase {
    /// Pair, open and catch-up latencies at the reference host speed.
    fn scaled(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let open = self.speed.scale_each(&self.open_ms, &self.open_at);
        let catchup = self.speed.scale_each(&self.catchup_ms, &self.catchup_at);
        let pairs = open.iter().zip(&catchup).map(|(a, b)| a + b).collect();
        (pairs, open, catchup)
    }
}

/// Replays `deltas` onto `engine` through the patch layer, one span each.
fn replay(
    tracer: &mut Tracer,
    op: u64,
    engine: &ConsensusEngine,
    deltas: &[(&'static str, TreeDelta)],
    decisions: &mut (usize, usize, usize),
) -> bool {
    let mut current = engine.clone();
    for (kind, delta) in deltas {
        match tracer.time(op, None, "patch", kind, || current.apply_delta(delta)) {
            Ok((next, report)) => {
                decisions.0 += report.kept();
                decisions.1 += report.patched();
                decisions.2 += report.invalidated();
                current = next;
            }
            Err(_) => return false,
        }
    }
    true
}

fn measure(
    cfg: &Config,
    prepared: &[Prepared],
    reads: &[Query],
    obs: &Obs,
    rng: &mut StdRng,
    tracer: &mut Tracer,
    length: Duration,
) -> Phase {
    let (vfs, _) = CountingVfs::std(tracer.enabled());
    let options = StoreOptions {
        vfs: vfs.clone(),
        obs: obs.clone(),
        ..StoreOptions::default()
    };
    let mut ph = Phase {
        pair_ms: Vec::new(),
        open_ms: Vec::new(),
        open_at: Vec::new(),
        catchup_ms: Vec::new(),
        catchup_at: Vec::new(),
        failed: 0,
        decisions: (0, 0, 0),
        sync_fsyncs: 0,
        sync_bytes: 0,
        speed: HostSpeed::new(2),
    };
    let mut order: Vec<usize> = Vec::new();
    let start = Instant::now();
    while start.elapsed() < length {
        if order.is_empty() {
            order = (0..prepared.len()).collect();
            order.shuffle(rng);
        }
        let p = &prepared[order.pop().expect("refilled above")];
        let epoch = p.reference.epoch();
        ph.speed.tick();
        let op = ph.pair_ms.len() as u64;
        let pair = tracer.open(op, None, "recover", "pair");

        // (a) Warm open of the primary's store.
        let open_at = ph.speed.now();
        let t0 = Instant::now();
        let open = tracer.open(op, Some(pair), "recover", "open");
        let opened = LiveEngine::open_with(&p.store, options.clone());
        tracer.close(open);
        let open_ms = t0.elapsed().as_secs_f64() * 1e3;

        // (b) Cold follower catch-up into fresh directories.
        let inbox = cfg.dir.join(format!("inbox-{op}"));
        let local = cfg.dir.join(format!("follower-{op}"));
        ph.speed.tick();
        let catchup_at = ph.speed.now();
        let t1 = Instant::now();
        let catchup = tracer.open(op, Some(pair), "recover", "catchup");
        let boot = tracer.open(op, Some(catchup), "replica", "bootstrap");
        let follower = Transport::new(std_vfs(), &p.outbox, vfs.clone(), &inbox)
            .map_err(cpdb_replica::ReplicaError::from)
            .and_then(|t| Follower::open(t, &local, options.clone()));
        tracer.close(boot);
        let anchor = follower.as_ref().ok().map(|f| f.snapshot());
        take_thread_io();
        let sync = tracer.open(op, Some(catchup), "replica", "sync");
        let follower = follower.and_then(|mut f| f.sync().map(|_| f));
        tracer.close(sync);
        let sync_io = take_thread_io();
        tracer.close(catchup);
        tracer.close(pair);
        let catchup_ms = t1.elapsed().as_secs_f64() * 1e3;
        ph.open_ms.push(open_ms);
        ph.open_at.push(open_at + open_ms / 2e3);
        ph.catchup_ms.push(catchup_ms);
        ph.catchup_at.push(catchup_at + catchup_ms / 2e3);
        ph.pair_ms.push(open_ms + catchup_ms);

        // Outside timing: the reopened epoch and its probe answers, and a
        // full divergence check of the follower against the writer.
        let open_ok = opened.is_ok_and(|live| {
            let s = live.snapshot();
            s.epoch() == epoch && reads.iter().map(|q| s.run(q)).eq(p.answers.iter().cloned())
        });
        let catchup_ok = follower.as_ref().is_ok_and(|f| {
            f.applied_epoch() == epoch
                && check_divergence(&p.reference, &f.snapshot(), reads).is_ok()
        });
        ph.failed += u64::from(!open_ok) + u64::from(!catchup_ok);
        drop(follower);
        let _ = std::fs::remove_dir_all(&inbox);
        let _ = std::fs::remove_dir_all(&local);

        if tracer.enabled() {
            // Decompose the open by calling its layers on the same store:
            // snapshot decode + WAL scan, engine import, replay.
            let (_store, recovered) = tracer
                .time(op, None, "snapshot", "decode", || Store::open(&p.store))
                .expect("the store reopens");
            let (_, export) = recovered.snapshot.expect("the store has a snapshot");
            let engine = tracer
                .time(op, None, "open", "from_export", || {
                    ConsensusEngine::from_export(&export)
                })
                .expect("the snapshot imports");
            let replay_span = tracer.open(op, None, "open", "replay");
            let ok = replay(tracer, op, &engine, &p.deltas, &mut ph.decisions);
            tracer.close(replay_span);
            // The follower's sync replays the same records from the anchor.
            if let Some(anchor) = anchor {
                let span = tracer.open(op, None, "replica", "replay");
                let mut scratch = (0, 0, 0);
                let ok_f = replay(tracer, op, anchor.engine(), &p.deltas, &mut scratch);
                tracer.close(span);
                ph.failed += u64::from(!ok_f);
            }
            ph.failed += u64::from(!ok);
            ph.sync_fsyncs += sync_io.fsyncs;
            ph.sync_bytes += sync_io.bytes_written;
        }
    }
    ph.speed.sample(2);
    ph
}

pub fn run(cfg: &Config) -> (Outcome, Tracer) {
    let reads = inputs::write_reads();
    let (vfs, _) = CountingVfs::std(false);
    let mut setup_s = Vec::new();
    let mut ship_ms = Vec::new();
    let mut prepared: Vec<Prepared> = Vec::new();
    for i in 0..SETUPS {
        // One set of primaries on disk at a time.
        for old in prepared.drain(..) {
            let _ = std::fs::remove_dir_all(&old.store);
            let _ = std::fs::remove_dir_all(&old.outbox);
        }
        // Set-up time is the preparations alone, scaled by the host speed
        // sampled between them.
        let mut speed = HostSpeed::new(2);
        let mut secs = 0.0;
        for j in 0..TREES {
            let t = Instant::now();
            let p = prepare(cfg, i, j, &reads, vfs.clone());
            secs += t.elapsed().as_secs_f64();
            speed.sample(2);
            ship_ms.push(p.ship_ms);
            prepared.push(p);
        }
        setup_s.push(secs * speed.scale());
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x2ec0_0000_0000_0001);
    let (untraced_len, traced_len) = cfg.phases();
    let base = measure(
        cfg,
        &prepared,
        &reads,
        &Obs::disabled(),
        &mut rng,
        &mut Tracer::new(false),
        untraced_len,
    );

    let mut m = Metrics::default();
    let mut attempted = 2 * base.pair_ms.len() as u64;
    let mut failed = base.failed;
    let (pairs, open, catchup) = base.scaled();
    m.set("setup_s", median(&setup_s));
    m.set("ops_per_s", per_second(&pairs));
    m.set("op_p50_ms", median(&pairs));
    m.set("op_tail_ms", quantile(&pairs, TAIL_Q));
    m.set("open_p50_ms", median(&open));
    m.set("open_p90_ms", quantile(&open, 0.9));
    m.set("catchup_p50_ms", median(&catchup));
    m.set("catchup_p90_ms", quantile(&catchup, 0.9));
    m.set("host.kernel_ms", base.speed.kernel_ms());

    let mut tracer = Tracer::new(cfg.trace);
    if let Some(len) = traced_len {
        let obs = Obs::enabled();
        let traced = measure(cfg, &prepared, &reads, &obs, &mut rng, &mut tracer, len);
        let snap = obs.snapshot();
        attempted += 2 * traced.pair_ms.len() as u64;
        failed += traced.failed;
        let records = (TAIL * traced.pair_ms.len()).max(1) as f64;
        for kind in inputs::DELTA_KINDS {
            m.set(
                format!("patch.{kind}.ms"),
                median(&tracer.ms("patch", kind)),
            );
        }
        m.set("patch.kept", traced.decisions.0 as f64 / records);
        m.set("patch.patched", traced.decisions.1 as f64 / records);
        m.set("patch.invalidated", traced.decisions.2 as f64 / records);
        let mean_ms = |name: &str| snap.histogram(name).map_or(0.0, |h| h.mean_ns() / 1e6);
        m.set("wal.append_ms", mean_ms("store.wal.append"));
        m.set("wal.fsyncs_per_delta", traced.sync_fsyncs as f64 / records);
        m.set("wal.bytes_per_delta", traced.sync_bytes as f64 / records);
        m.set("snapshot.write_ms", mean_ms("store.snapshot.write"));
        m.set(
            "snapshot.decode_ms",
            median(&tracer.ms("snapshot", "decode")),
        );
        m.set(
            "snapshot.bytes",
            newest_snapshot_bytes(&prepared[0].store) as f64,
        );
        m.set(
            "open.from_export_ms",
            median(&tracer.ms("open", "from_export")),
        );
        let per_record = |layer| median(&tracer.ms(layer, "replay")) / TAIL as f64;
        m.set("open.replay_ms_per_record", per_record("open"));
        m.set("replica.replay_ms_per_record", per_record("replica"));
        m.set("replica.ship_ms", median(&ship_ms));
        m.set("replica.ship_bytes", dir_bytes(&prepared[0].outbox) as f64);
        m.set(
            "replica.bootstrap_ms",
            median(&tracer.ms("replica", "bootstrap")),
        );
        m.set("replica.sync_ms", median(&tracer.ms("replica", "sync")));
        m.set(
            "trace.overhead_pct",
            layers::overhead_pct(
                mean(&pairs),
                mean(&traced.scaled().0),
            ),
        );
        // Layer parts of a pair: the open's decomposition plus the
        // follower's bootstrap and sync.
        let whole = tracer.total_ms("recover", "pair");
        let parts = tracer.total_ms("snapshot", "decode")
            + tracer.total_ms("open", "from_export")
            + tracer.total_ms("open", "replay")
            + tracer.total_ms("replica", "bootstrap")
            + tracer.total_ms("replica", "sync");
        m.set("trace.unattributed_pct", (whole - parts) / whole * 100.0);
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
