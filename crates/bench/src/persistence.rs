//! Persistence round-trip workload: the `persistence` suite of the `ledger`
//! driver, and the scratch directories every on-disk suite uses.
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

use crate::sample::{time_ms, Sample};
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
    /// Milliseconds for a durable apply (WAL append + fsync + publish), one
    /// sample per delta of the suite.
    pub durable_apply_ms: Sample,
    /// Milliseconds to write + fsync + atomically publish a snapshot of the
    /// final epoch.
    pub snapshot_write_ms: Sample,
    /// Milliseconds for `LiveEngine::open`: snapshot decode + WAL replay.
    pub warm_open_ms: Sample,
    /// Milliseconds for `LiveEngine::open` after compaction: snapshot decode
    /// only.
    pub snapshot_only_open_ms: Sample,
    /// Milliseconds to rebuild the same serving state cold: fresh engine
    /// from the final tree + recomputing the warm artifact families.
    pub cold_build_ms: Sample,
}

impl PersistenceResult {
    /// `cold / warm` on the best-of timings — how much faster a restart is
    /// when it recovers the persisted artifacts instead of recomputing them.
    pub fn cold_over_warm(&self) -> f64 {
        self.cold_build_ms.best() / self.warm_open_ms.best()
    }
}

/// A fresh, unique path under the system temp dir, not yet created (a stale
/// directory left there by an earlier process with the same id is removed).
pub fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cpdb_bench_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Builds a durable engine in a fresh scratch directory and logs one delta
/// of every supported kind to its WAL. Returns the directory, the number of
/// logged deltas (= the final epoch), and each durable apply's wall-clock.
/// The caller owns the directory.
fn scratch_engine(n: usize, seed: u64) -> (PathBuf, usize, Sample) {
    let tree = live_tree(n, seed);
    let dir = temp_dir("persistence");
    let engine = live_engine(tree.clone(), seed);
    warm_maintained_artifacts(&engine);
    let live = LiveEngine::new_durable(engine, &dir).expect("creating durable engine");
    // One durable apply per delta kind; each WAL append is fsynced before
    // the epoch publishes. Deltas address nodes by id, so each one is
    // regenerated against the tree it will actually mutate.
    let kinds = delta_suite(&tree).len();
    let mut apply_ms = Vec::with_capacity(kinds);
    for i in 0..kinds {
        let current = live.snapshot().tree().clone();
        let (kind, delta) = delta_suite(&current).swap_remove(i);
        let start = Instant::now();
        live.apply(&delta)
            .unwrap_or_else(|e| panic!("applying suite delta {kind}: {e}"));
        apply_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    (dir, kinds, Sample::new(apply_ms))
}

/// Measures one persistence round-trip: durable writes, snapshot write, warm
/// reopen (snapshot + WAL replay), snapshot-only reopen, and the cold
/// rebuild it replaces — asserting recovered ≡ writer answers throughout.
pub fn measure_persistence(n: usize, seed: u64, reps: usize) -> PersistenceResult {
    let queries = probe();
    let (dir, deltas_applied, durable_apply_ms) = scratch_engine(n, seed);
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
    let warm_open_ms = time_ms(reps, || {
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
    let snapshot_write_ms = time_ms(reps, || {
        reopened
            .persist_snapshot()
            .expect("snapshotting the final epoch")
    });
    let snapshot_bytes = std::fs::metadata(dir.join(format!("snapshot-{deltas_applied}.cpdb")))
        .expect("final-epoch snapshot exists")
        .len();
    drop(reopened);

    // Snapshot-only start: the WAL was compacted, so open is pure decode.
    let snapshot_only_open_ms = time_ms(reps, || {
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
    let cold_build_ms = time_ms(reps, || {
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
        assert_eq!(r.durable_apply_ms.reps(), 5);
        for timing in [
            &r.durable_apply_ms,
            &r.snapshot_write_ms,
            &r.warm_open_ms,
            &r.snapshot_only_open_ms,
            &r.cold_build_ms,
        ] {
            assert!(timing.best() > 0.0);
        }
    }
}
