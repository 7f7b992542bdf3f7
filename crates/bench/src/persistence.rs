//! Persistence round-trip workload shared by the `persistence_roundtrip`
//! Criterion bench and the `persistence_roundtrip` JSON emitter binary.
//!
//! The workload models the restart path of a durable serving engine: a
//! [`cpdb_live::LiveEngine`] is created on disk, absorbs one delta of every
//! supported kind (each WAL-logged and fsynced before publication), and is
//! then reopened. The measurement compares:
//!
//! * **warm start** — [`cpdb_live::LiveEngine::open`]: decode the epoch-0
//!   snapshot (configuration, tree, and every built artifact, bit-exact) and
//!   replay the WAL tail as one batch through the delta-aware maintenance
//!   path;
//! * **snapshot-only start** — the same open after [`persist_snapshot`]
//!   compacted the WAL into a fresh snapshot (no replay work left);
//! * **cold rebuild** — the pre-`cpdb_store` alternative: build a fresh
//!   engine from the final tree and recompute the warm artifact families
//!   from scratch.
//!
//! Every measurement first asserts that the reopened engine answers the
//! probe batch bit-identically to the writer it recovered from.
//!
//! [`persist_snapshot`]: cpdb_live::LiveEngine::persist_snapshot

use crate::update_throughput::{
    delta_suite, live_engine, live_tree, probe, warm_maintained_artifacts,
};
use cpdb_live::LiveEngine;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One measured persistence round-trip at a given fleet size.
pub struct PersistenceResult {
    /// Fleet size (scored BID blocks).
    pub n: usize,
    /// Deltas logged to the WAL before the measured reopen.
    pub deltas_applied: usize,
    /// Size of the compacted snapshot file on disk.
    pub snapshot_bytes: u64,
    /// Size of the WAL before compaction (header + logged records).
    pub wal_bytes: u64,
    /// Milliseconds for a durable apply (WAL append + fsync + publish),
    /// averaged over the delta suite.
    pub durable_apply_ms: f64,
    /// Milliseconds to write + fsync + atomically publish a snapshot of the
    /// final epoch (best of `reps`).
    pub snapshot_write_ms: f64,
    /// Milliseconds for `LiveEngine::open`: snapshot decode + WAL replay
    /// (best of `reps`).
    pub warm_open_ms: f64,
    /// Milliseconds for `LiveEngine::open` after compaction: snapshot decode
    /// only (best of `reps`).
    pub snapshot_only_open_ms: f64,
    /// Milliseconds to rebuild the same serving state cold: fresh engine
    /// from the final tree + recomputing the warm artifact families (best of
    /// `reps`).
    pub cold_build_ms: f64,
}

impl PersistenceResult {
    /// `cold / warm` — how much faster a restart is when it recovers the
    /// persisted artifacts instead of recomputing them.
    pub fn cold_over_warm(&self) -> f64 {
        self.cold_build_ms / self.warm_open_ms
    }

    /// Snapshot write throughput in MB/s.
    pub fn snapshot_write_mbps(&self) -> f64 {
        (self.snapshot_bytes as f64 / 1e6) / (self.snapshot_write_ms / 1e3)
    }

    /// Snapshot load throughput in MB/s (decode + validate + rebuild).
    pub fn snapshot_load_mbps(&self) -> f64 {
        (self.snapshot_bytes as f64 / 1e6) / (self.snapshot_only_open_ms / 1e3)
    }
}

fn best_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best * 1e3
}

/// A fresh, unique scratch directory under the system temp dir.
fn scratch_dir(n: usize, seed: u64) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let unique = format!(
        "cpdb-bench-persistence-{}-{}-{}-{}",
        std::process::id(),
        n,
        seed,
        SEQ.fetch_add(1, Ordering::Relaxed),
    );
    let dir = std::env::temp_dir().join(unique);
    std::fs::create_dir_all(&dir).expect("creating scratch dir");
    dir
}

/// Builds a durable engine in a fresh scratch directory and logs one delta
/// of every supported kind to its WAL. Returns the directory and the number
/// of logged deltas (= the final epoch). The caller owns the directory.
pub fn scratch_engine(n: usize, seed: u64) -> (PathBuf, usize) {
    let (dir, deltas_applied, _) = scratch_engine_timed(n, seed);
    (dir, deltas_applied)
}

fn scratch_engine_timed(n: usize, seed: u64) -> (PathBuf, usize, f64) {
    let tree = live_tree(n, seed);
    let dir = scratch_dir(n, seed);
    let engine = live_engine(tree.clone(), seed);
    warm_maintained_artifacts(&engine);
    let live = LiveEngine::new_durable(engine, &dir).expect("creating durable engine");
    // One durable apply per delta kind; each WAL append is fsynced before
    // the epoch publishes. Deltas address nodes by id, so each one is
    // regenerated against the tree it will actually mutate.
    let kinds = delta_suite(&tree).len();
    let mut apply_total_ms = 0.0;
    for i in 0..kinds {
        let current = live.snapshot().tree().clone();
        let (kind, delta) = delta_suite(&current).swap_remove(i);
        let start = Instant::now();
        live.apply(&delta)
            .unwrap_or_else(|e| panic!("applying suite delta {kind}: {e}"));
        apply_total_ms += start.elapsed().as_secs_f64() * 1e3;
    }
    (dir, kinds, apply_total_ms / kinds as f64)
}

/// Measures one persistence round-trip: durable writes, snapshot write, warm
/// reopen (snapshot + WAL replay), snapshot-only reopen, and the cold
/// rebuild it replaces — asserting recovered ≡ writer answers throughout.
pub fn measure_persistence(n: usize, seed: u64, reps: usize) -> PersistenceResult {
    let queries = probe();
    let (dir, deltas_applied, durable_apply_ms) = scratch_engine_timed(n, seed);
    let live = LiveEngine::open(&dir).expect("reopening the writer");

    let expected = live.snapshot();
    let expected_answers = expected.run_batch_serial(&queries);
    let final_tree = expected.tree().clone();
    let wal_bytes = std::fs::metadata(dir.join("wal.cpdb"))
        .expect("WAL exists after durable applies")
        .len();
    drop(expected);
    drop(live);

    // Warm start: epoch-0 snapshot decode + full WAL replay.
    let warm_open_ms = best_ms(reps, || {
        let reopened = LiveEngine::open(&dir).expect("warm reopen");
        assert_eq!(reopened.epoch(), deltas_applied as u64);
        reopened
    });
    let reopened = LiveEngine::open(&dir).expect("warm reopen");
    assert_eq!(
        reopened.snapshot().run_batch_serial(&queries),
        expected_answers,
        "warm-started engine diverges from the writer it recovered"
    );

    // Snapshot of the final epoch (also compacts the WAL).
    let snapshot_write_ms = best_ms(reps, || {
        reopened
            .persist_snapshot()
            .expect("snapshotting the final epoch")
    });
    let snapshot_bytes = std::fs::metadata(dir.join(format!("snapshot-{deltas_applied}.cpdb")))
        .expect("final-epoch snapshot exists")
        .len();
    drop(reopened);

    // Snapshot-only start: the WAL was compacted, so open is pure decode.
    let snapshot_only_open_ms = best_ms(reps, || {
        let reopened = LiveEngine::open(&dir).expect("snapshot-only reopen");
        assert_eq!(reopened.epoch(), deltas_applied as u64);
        reopened
    });
    let reopened = LiveEngine::open(&dir).expect("snapshot-only reopen");
    assert_eq!(
        reopened.snapshot().run_batch_serial(&queries),
        expected_answers,
        "snapshot-only start diverges from the writer it recovered"
    );
    drop(reopened);

    // The alternative: recompute everything from the final tree.
    let cold_build_ms = best_ms(reps, || {
        let cold = live_engine(final_tree.clone(), seed);
        warm_maintained_artifacts(&cold);
        cold
    });
    let cold = live_engine(final_tree.clone(), seed);
    warm_maintained_artifacts(&cold);
    assert_eq!(
        cold.run_batch_serial(&queries),
        expected_answers,
        "cold rebuild diverges from the recovered serving state"
    );

    std::fs::remove_dir_all(&dir).ok();
    PersistenceResult {
        n,
        deltas_applied,
        snapshot_bytes,
        wal_bytes,
        durable_apply_ms,
        snapshot_write_ms,
        warm_open_ms,
        snapshot_only_open_ms,
        cold_build_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_recovers_and_measures() {
        let r = measure_persistence(24, 5, 1);
        assert_eq!(r.n, 24);
        assert_eq!(r.deltas_applied, 5);
        assert!(r.snapshot_bytes > 0);
        // Header + five framed records.
        assert!(r.wal_bytes > 12);
        assert!(r.durable_apply_ms > 0.0);
        assert!(r.snapshot_write_ms > 0.0);
        assert!(r.warm_open_ms > 0.0);
        assert!(r.snapshot_only_open_ms > 0.0);
        assert!(r.cold_build_ms > 0.0);
        assert!(r.snapshot_write_mbps() > 0.0);
        assert!(r.snapshot_load_mbps() > 0.0);
    }
}
