//! `write_mix`: durable `LiveEngine`s (fsync on every append, background
//! compaction every 32 epochs) absorbing one client's cycles of one
//! stationary delta followed by cheap reads on the new epoch.
//!
//! A run writes to [`TREES`] engines on trees drawn from its seed, each
//! with its own store and delta stream, in seeded shuffles of complete
//! rounds, so a run averages over trees rather than reading one tree's
//! cost.

use crate::inputs::{self, DeltaStream, DELTA_KINDS, WRITE_READ_K};
use crate::layers::{answer_metrics, artifact_metrics, overhead_pct, prebuild};
use crate::stats::{mean, median, peak_rss_mb, per_second, quantile, HostSpeed};
use crate::trace::Tracer;
use crate::vfs::{take_thread_io, CountingVfs, Totals};
use crate::{Config, Metrics, Outcome, SETUPS};
use cpdb_engine::{CacheStats, Obs, Query};
use cpdb_live::{LiveEngine, StoreOptions};
use cpdb_store::Store;
use rand::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Durable engines (one tree and store each) a run writes to.
const TREES: usize = 12;

/// The percentile `op_tail_ms` reports. The ~3% of cycles that overlap a
/// compaction make the percentiles near p97 jump between two classes, so
/// the gated tail stays below them; `write_p99_ms` shows the stalls.
const TAIL: f64 = 0.9;

/// One measured phase.
struct Phase {
    /// Whole cycle: apply plus its reads.
    cycle_ms: Vec<f64>,
    /// When each cycle ran (see [`HostSpeed::now`]).
    cycle_at: Vec<f64>,
    write_ms: Vec<f64>,
    read_ms: Vec<f64>,
    failed: u64,
    /// Bytes written by every thread (WAL and compaction snapshots).
    bytes: u64,
    /// The client thread's WAL bytes and fsyncs.
    wal_bytes: u64,
    wal_fsyncs: u64,
    /// Traced only: per-cycle `apply − patch − WAL I/O`.
    live_self_ms: Vec<f64>,
    /// Traced only: `(kept, patched, invalidated)` summed over deltas.
    decisions: (usize, usize, usize),
    speed: HostSpeed,
}

impl Phase {
    /// Cycle, write and read latencies at the reference host speed.
    fn scaled(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let per_cycle = self.read_ms.len() / self.cycle_at.len().max(1);
        let read_at: Vec<f64> = self
            .cycle_at
            .iter()
            .flat_map(|&t| std::iter::repeat(t).take(per_cycle))
            .collect();
        (
            self.speed.scale_each(&self.cycle_ms, &self.cycle_at),
            self.speed.scale_each(&self.write_ms, &self.cycle_at),
            self.speed.scale_each(&self.read_ms, &read_at),
        )
    }
}

fn options(vfs: Arc<dyn cpdb_store::Vfs>, obs: Obs) -> StoreOptions {
    StoreOptions {
        vfs,
        obs,
        ..StoreOptions::default()
    }
}

fn measure(
    lives: &[LiveEngine],
    totals: &Totals,
    streams: &mut [DeltaStream],
    reads: &[Query],
    rng: &mut StdRng,
    tracer: &mut Tracer,
    length: Duration,
) -> Phase {
    let mut p = Phase {
        cycle_ms: Vec::new(),
        cycle_at: Vec::new(),
        write_ms: Vec::new(),
        read_ms: Vec::new(),
        failed: 0,
        bytes: 0,
        wal_bytes: 0,
        wal_fsyncs: 0,
        live_self_ms: Vec::new(),
        decisions: (0, 0, 0),
        speed: HostSpeed::new(2),
    };
    let bytes0 = totals.bytes_written.load(Relaxed);
    let mut order: Vec<usize> = Vec::new();
    let start = Instant::now();
    while start.elapsed() < length {
        if order.is_empty() {
            order = (0..lives.len()).collect();
            order.shuffle(rng);
        }
        let j = order.pop().expect("refilled above");
        let live = &lives[j];
        p.speed.tick();
        let op = p.cycle_ms.len() as u64;
        let before = live.snapshot();
        let (kind, delta) = streams[j].next(before.tree());
        take_thread_io();
        let at = p.speed.now();
        let t0 = Instant::now();
        let cycle = tracer.open(op, None, "cycle", "");
        let write = tracer.open(op, Some(cycle), "write", "");
        let applied = live.apply(&delta);
        tracer.close(write);
        let write_ms = t0.elapsed().as_secs_f64() * 1e3;
        let io = take_thread_io();
        let snapshot = live.snapshot();
        if tracer.enabled() {
            prebuild(tracer, op, Some(cycle), &snapshot, &[WRITE_READ_K]);
        }
        let mut ok = applied.is_ok();
        for query in reads {
            let t = Instant::now();
            let answer = tracer.time(op, Some(cycle), "answer", inputs::family(query), || {
                snapshot.run(query)
            });
            p.read_ms.push(t.elapsed().as_secs_f64() * 1e3);
            ok &= answer.is_ok();
        }
        tracer.close(cycle);
        let cycle_ms = t0.elapsed().as_secs_f64() * 1e3;
        p.cycle_ms.push(cycle_ms);
        p.cycle_at.push(at + cycle_ms / 2e3);
        p.write_ms.push(write_ms);
        p.wal_bytes += io.bytes_written;
        p.wal_fsyncs += io.fsyncs;
        if !ok {
            p.failed += 1;
        }
        if let (true, Ok(applied)) = (tracer.enabled(), &applied) {
            // Decompose the apply: the same delta through the patch layer
            // alone, on the same input epoch; WAL time is the client
            // thread's file I/O inside the apply.
            tracer.record(op, Some(write), "wal", "io", (io.total_ms() * 1e6) as u64);
            let t = Instant::now();
            let _ = tracer.time(op, None, "patch", kind, || before.apply_delta(&delta));
            let patch_ms = t.elapsed().as_secs_f64() * 1e3;
            p.live_self_ms.push(write_ms - patch_ms - io.total_ms());
            tracer.record(op, None, "wal", "fsync", io.fsync_ns);
            let r = &applied.report;
            p.decisions.0 += r.kept();
            p.decisions.1 += r.patched();
            p.decisions.2 += r.invalidated();
        }
    }
    // Background compaction finishes inside the phase, so its bytes count.
    lives.iter().for_each(LiveEngine::await_compaction);
    p.speed.sample(2);
    p.bytes = totals.bytes_written.load(Relaxed) - bytes0;
    p
}

/// Set-up of tree `j`: a warm engine, made durable in `dir` (writes the
/// epoch-0 snapshot).
fn setup(
    cfg: &Config,
    j: usize,
    dir: &Path,
    reads: &[Query],
    vfs: Arc<dyn cpdb_store::Vfs>,
) -> LiveEngine {
    let seed = inputs::tree_seed(cfg.seed, j);
    let engine = inputs::engine(inputs::tree(seed), seed, Obs::disabled());
    for q in reads {
        let _ = engine.run(q);
    }
    LiveEngine::new_durable_with(engine, dir, options(vfs, Obs::disabled()))
        .expect("a fresh store directory")
}

/// Size of the newest `snapshot-<epoch>.cpdb` in a store directory.
pub fn newest_snapshot_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let epoch: u64 = name
                .strip_prefix("snapshot-")?
                .strip_suffix(".cpdb")?
                .parse()
                .ok()?;
            Some((epoch, e.metadata().ok()?.len()))
        })
        .max()
        .map_or(0, |(_, len)| len)
}

pub fn run(cfg: &Config) -> (Outcome, Tracer) {
    let reads = inputs::write_reads();
    let (vfs, totals) = CountingVfs::std(false);
    let mut setup_s = Vec::new();
    let mut lives: Vec<LiveEngine> = Vec::new();
    let mut dirs: Vec<PathBuf> = Vec::new();
    for i in 0..SETUPS {
        // One set of engines alive at a time.
        lives.clear();
        dirs.drain(..).for_each(|d| {
            let _ = std::fs::remove_dir_all(d);
        });
        // Set-up time is the set-ups alone, scaled by the host speed
        // sampled between them.
        let mut speed = HostSpeed::new(2);
        let mut secs = 0.0;
        for j in 0..TREES {
            let dir = cfg.dir.join(format!("store-{i}-{j}"));
            let t = Instant::now();
            lives.push(setup(cfg, j, &dir, &reads, vfs.clone()));
            secs += t.elapsed().as_secs_f64();
            speed.sample(2);
            dirs.push(dir);
        }
        setup_s.push(secs * speed.scale());
    }
    let mut streams: Vec<DeltaStream> = (0..TREES)
        .map(|j| DeltaStream::new(inputs::tree_seed(cfg.seed, j)))
        .collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x3717_e000_0000_0001);
    let (untraced_len, traced_len) = cfg.phases();
    let base = measure(
        &lives,
        &totals,
        &mut streams,
        &reads,
        &mut rng,
        &mut Tracer::new(false),
        untraced_len,
    );

    let mut m = Metrics::default();
    let mut attempted = base.cycle_ms.len() as u64;
    let mut failed = base.failed;
    let deltas = base.write_ms.len().max(1) as f64;
    let (cycles, writes, read_ms) = base.scaled();
    m.set("setup_s", median(&setup_s));
    m.set("ops_per_s", per_second(&cycles));
    m.set("op_p50_ms", median(&cycles));
    m.set("op_tail_ms", quantile(&cycles, TAIL));
    m.set("write_per_s", per_second(&writes));
    m.set("write_p50_ms", median(&writes));
    m.set("write_p99_ms", quantile(&writes, 0.99));
    m.set("read_qps", per_second(&read_ms));
    m.set("read_p50_ms", median(&read_ms));
    m.set("read_p99_ms", quantile(&read_ms, 0.99));
    m.set("write_bytes_per_delta", base.bytes as f64 / deltas);
    m.set("wal.bytes_per_delta", base.wal_bytes as f64 / deltas);
    m.set("wal.fsyncs_per_delta", base.wal_fsyncs as f64 / deltas);
    m.set("host.kernel_ms", base.speed.kernel_ms());

    let mut tracer = Tracer::new(cfg.trace);
    let lives = match traced_len {
        None => lives,
        Some(len) => {
            // Reopen the same stores with timing on and a sink attached, so
            // the store's WAL-append and snapshot-write histograms and the
            // live layer's compaction histogram cover this phase only.
            drop(lives);
            let obs = Obs::enabled();
            let (timed_vfs, timed_totals) = CountingVfs::std(true);
            let lives: Vec<LiveEngine> = dirs
                .iter()
                .map(|d| {
                    LiveEngine::open_with(d, options(timed_vfs.clone(), obs.clone()))
                        .expect("reopening the store")
                })
                .collect();
            let stats =
                || -> Vec<CacheStats> { lives.iter().map(|l| l.snapshot().cache_stats()).collect() };
            let (stats0, obs0) = (stats(), obs.snapshot());
            let traced = measure(
                &lives,
                &timed_totals,
                &mut streams,
                &reads,
                &mut rng,
                &mut tracer,
                len,
            );
            let (stats1, obs1) = (stats(), obs.snapshot());
            attempted += traced.cycle_ms.len() as u64;
            failed += traced.failed;
            traced_metrics(&mut m, &tracer, &traced, (&obs0, &obs1));
            artifact_metrics(&mut m, &tracer, (&stats0, &stats1), (&obs0, &obs1));
            m.set(
                "trace.overhead_pct",
                overhead_pct(
                    mean(&cycles),
                    mean(&traced.scaled().0),
                ),
            );
            lives
        }
    };

    // Once per run, outside timing: each final epoch answers exactly like a
    // from-scratch engine on its final tree.
    for (j, live) in lives.iter().enumerate() {
        let last = live.snapshot();
        let seed = inputs::tree_seed(cfg.seed, j);
        let scratch = inputs::engine(last.tree().clone(), seed, Obs::disabled());
        if reads.iter().any(|q| last.run(q) != scratch.run(q)) {
            failed += 1;
        }
        attempted += 1;
    }
    drop(lives);
    if cfg.trace {
        let mut decode = Vec::new();
        for _ in 0..SETUPS {
            let t = Instant::now();
            let opened = Store::open(&dirs[0]);
            decode.push(t.elapsed().as_secs_f64() * 1e3);
            failed += u64::from(opened.is_err());
        }
        m.set("snapshot.decode_ms", median(&decode));
        m.set("snapshot.bytes", newest_snapshot_bytes(&dirs[0]) as f64);
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

/// Patch, WAL, snapshot, live and answer metrics of the traced phase.
fn traced_metrics(
    m: &mut Metrics,
    tracer: &Tracer,
    p: &Phase,
    (obs0, obs1): (&cpdb_engine::MetricsSnapshot, &cpdb_engine::MetricsSnapshot),
) {
    for kind in DELTA_KINDS {
        m.set(
            format!("patch.{kind}.ms"),
            median(&tracer.ms("patch", kind)),
        );
    }
    let deltas = p.write_ms.len().max(1) as f64;
    m.set("patch.kept", p.decisions.0 as f64 / deltas);
    m.set("patch.patched", p.decisions.1 as f64 / deltas);
    m.set("patch.invalidated", p.decisions.2 as f64 / deltas);
    m.set("wal.fsync_ms", median(&tracer.ms("wal", "fsync")));
    m.set("live.apply_self_ms", median(&p.live_self_ms));
    // Histogram deltas over the phase: (count, mean ms).
    let hist = |name: &str| {
        let (c0, s0) = obs0.histogram(name).map_or((0, 0), |h| (h.count, h.sum_ns));
        let (c1, s1) = obs1.histogram(name).map_or((0, 0), |h| (h.count, h.sum_ns));
        let count = c1.saturating_sub(c0);
        let mean = if count == 0 {
            0.0
        } else {
            s1.saturating_sub(s0) as f64 / count as f64 / 1e6
        };
        (count, mean)
    };
    m.set("wal.append_ms", hist("store.wal.append").1);
    m.set("snapshot.write_ms", hist("store.snapshot.write").1);
    let (compactions, compaction_ms) = hist("live.compaction");
    m.set("compaction.count", compactions as f64);
    m.set("compaction.ms", compaction_ms);
    m.set(
        "compaction.bytes_rewritten",
        p.bytes.saturating_sub(p.wal_bytes) as f64 / compactions.max(1) as f64,
    );
    // Read time is what the reads and their artifact builds took.
    let read_ms = tracer.total_ms("answer", "*") + tracer.total_ms("artifact", "*");
    answer_metrics(m, tracer, read_ms);
    let cycles = tracer.total_ms("cycle", "");
    let parts = tracer.total_ms("patch", "*") + tracer.total_ms("wal", "io") + read_ms;
    m.set("trace.unattributed_pct", (cycles - parts) / cycles * 100.0);
}
