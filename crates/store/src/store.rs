//! The on-disk store: a directory holding epoch-stamped snapshot files plus
//! one write-ahead log, with the recovery protocol that stitches them back
//! into the exact pre-crash epoch.
//!
//! Layout of a store directory:
//!
//! ```text
//! <dir>/snapshot-<epoch>.cpdb   zero or more, latest-valid wins
//! <dir>/wal.cpdb                deltas for epochs after the snapshots
//! ```
//!
//! Recovery ([`Store::open`]) loads the newest snapshot that passes
//! integrity checks (corrupt newer ones are skipped — the atomic snapshot
//! writer makes that window tiny, but bit-rot happens), then selects the
//! WAL suffix with epochs strictly above the snapshot and verifies it is
//! contiguous from `snapshot_epoch + 1`. Every crash window is covered:
//! a WAL record fsync'd but never published simply replays, and a snapshot
//! written but not yet compacted leaves overlapping WAL records that the
//! suffix filter drops.
//!
//! Every file operation routes through the store's [`Vfs`]
//! ([`StoreOptions::vfs`]), and every durable write is wrapped in the
//! bounded [`RetryPolicy`] ([`StoreOptions::retry`]): transient I/O
//! failures (`EINTR`-style) are absorbed invisibly, permanent ones surface
//! to the caller — who can later call [`Store::reprobe`] to re-run
//! recovery on the same directory and resume service.

use crate::obs::{ObsVfs, StoreObs};
use crate::retry::{with_retry, with_retry_hook};
use crate::snapshot::{image_epoch, read_snapshot_with, write_snapshot_with};
use crate::vfs::{std_vfs, write_atomic, Vfs};
use crate::wal::Wal;
use crate::{RetryPolicy, StoreError};
use cpdb_andxor::TreeDelta;
use cpdb_engine::EngineExport;
use cpdb_obs::{EventKind, Obs};
use cpdb_sync::atomic::{AtomicU64, Ordering};
use cpdb_sync::Mutex;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const WAL_FILE: &str = "wal.cpdb";
const SNAPSHOT_PREFIX: &str = "snapshot-";
const SNAPSHOT_SUFFIX: &str = ".cpdb";
/// Superseded snapshots kept around as fallbacks for bit-rot in the newest.
const SNAPSHOTS_RETAINED: usize = 2;
/// Sentinel for "no ship watermark set" in [`Store::ship_watermark`].
const NO_WATERMARK: u64 = u64::MAX;

/// Everything [`Store::open`] recovered from disk: the newest valid
/// snapshot (if any) and the WAL records to replay on top of it.
#[derive(Debug)]
pub struct Recovered {
    /// `(epoch, export)` of the newest snapshot that passed integrity
    /// checks, or `None` if the directory holds no readable snapshot.
    pub snapshot: Option<(u64, EngineExport)>,
    /// WAL records with epochs after the snapshot, contiguous from
    /// `snapshot_epoch + 1`, in replay order.
    pub wal: Vec<(u64, TreeDelta)>,
}

impl Recovered {
    /// The epoch this recovery state reconstructs: the last WAL epoch, or
    /// the snapshot's, or 0 for an empty store.
    pub fn epoch(&self) -> u64 {
        self.wal
            .last()
            .map(|(e, _)| *e)
            .or_else(|| self.snapshot.as_ref().map(|(e, _)| *e))
            .unwrap_or(0)
    }
}

/// How a [`Store`] talks to the disk: which [`Vfs`] carries its file
/// operations and which [`RetryPolicy`] bounds retries of transient
/// failures. `Default` is production: the real filesystem, four attempts
/// with millisecond exponential backoff.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// The filesystem implementation (production [`crate::StdVfs`] or a
    /// test [`crate::FaultVfs`]).
    pub vfs: Arc<dyn Vfs>,
    /// Retry schedule for transient I/O failures on durable writes.
    pub retry: RetryPolicy,
    /// Observability sink. When enabled, the store wraps `vfs` in an
    /// [`ObsVfs`] (per-operation and byte counters), times WAL appends and
    /// snapshot writes, and counts retries; the default disabled sink
    /// changes nothing on any I/O path.
    pub obs: Obs,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            vfs: std_vfs(),
            retry: RetryPolicy::default(),
            obs: Obs::disabled(),
        }
    }
}

/// A durable store directory. Appends serialise through an internal mutex;
/// snapshot writes compact the WAL and prune superseded snapshot files.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    wal: Mutex<Wal>,
    vfs: Arc<dyn Vfs>,
    retry: RetryPolicy,
    /// Highest epoch shipped to replicas; WAL records above it must stay.
    /// `NO_WATERMARK` (`u64::MAX`) means replication is not active and
    /// compaction is unconstrained.
    ship_watermark: AtomicU64,
    /// Store-level metric handles (WAL-append latency, retry counters).
    /// Purely additive: records timings and events, never changes what is
    /// written or read.
    obs: StoreObs,
}

/// Wraps `vfs` in the counting [`ObsVfs`] decorator when `obs` is enabled;
/// a disabled sink keeps the undecorated handle so production I/O pays no
/// extra virtual dispatch.
fn instrumented_vfs(vfs: Arc<dyn Vfs>, obs: &Obs) -> Arc<dyn Vfs> {
    if obs.is_enabled() {
        Arc::new(ObsVfs::new(vfs, obs))
    } else {
        vfs
    }
}

fn snapshot_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("{SNAPSHOT_PREFIX}{epoch}{SNAPSHOT_SUFFIX}"))
}

/// Epochs of the snapshot files present in `dir`, descending (newest
/// first). Files that merely look like snapshots but have unparsable
/// epochs are ignored.
fn snapshot_epochs_in(vfs: &Arc<dyn Vfs>, dir: &Path) -> Result<Vec<u64>, StoreError> {
    let mut epochs = Vec::new();
    for name in vfs.read_dir_names(dir)? {
        let Some(stem) = name
            .strip_prefix(SNAPSHOT_PREFIX)
            .and_then(|s| s.strip_suffix(SNAPSHOT_SUFFIX))
        else {
            continue;
        };
        if let Ok(epoch) = stem.parse::<u64>() {
            epochs.push(epoch);
        }
    }
    epochs.sort_unstable_by(|a, b| b.cmp(a));
    Ok(epochs)
}

/// The shared recovery routine behind [`Store::open`] and
/// [`Store::reprobe`]: pick the newest valid snapshot, open + replay the
/// WAL (truncating any torn tail), and filter/validate the epoch suffix.
fn recover(
    vfs: &Arc<dyn Vfs>,
    retry: &RetryPolicy,
    dir: &Path,
) -> Result<(Wal, Recovered), StoreError> {
    let mut snapshot = None;
    for epoch in snapshot_epochs_in(vfs, dir)? {
        match with_retry(retry, || {
            read_snapshot_with(vfs, &snapshot_path(dir, epoch))
        }) {
            Ok((stamped, export)) => {
                if stamped != epoch {
                    return Err(StoreError::Corrupt {
                        context: format!(
                            "snapshot file named for epoch {epoch} is stamped {stamped}"
                        ),
                    });
                }
                snapshot = Some((epoch, export));
                break;
            }
            Err(StoreError::Io(e)) => return Err(StoreError::Io(e)),
            Err(_) => continue, // corrupt or unreadable image: fall back
        }
    }

    let (wal, records) = with_retry(retry, || Wal::open_with(vfs.clone(), &dir.join(WAL_FILE)))?;
    let snap_epoch = snapshot.as_ref().map(|(e, _)| *e).unwrap_or(0);
    let mut suffix = Vec::new();
    for (epoch, delta) in records {
        if epoch <= snap_epoch {
            continue; // compaction hadn't run yet; the snapshot covers it
        }
        let expected = snap_epoch + suffix.len() as u64 + 1;
        if epoch != expected {
            return Err(StoreError::Corrupt {
                context: format!(
                    "wal epoch {epoch} is not contiguous (expected {expected} \
                     after snapshot epoch {snap_epoch})"
                ),
            });
        }
        suffix.push((epoch, delta));
    }

    Ok((
        wal,
        Recovered {
            snapshot,
            wal: suffix,
        },
    ))
}

impl Store {
    /// Creates a fresh store in `dir` (creating the directory if needed) on
    /// the production filesystem with default retries.
    ///
    /// Fails with [`StoreError::AlreadyExists`] if the directory already
    /// holds store files — a fresh database must not silently shadow a
    /// durable one.
    pub fn create(dir: &Path) -> Result<Store, StoreError> {
        Store::create_with(dir, StoreOptions::default())
    }

    /// [`Store::create`] with an explicit [`Vfs`] and retry schedule.
    pub fn create_with(dir: &Path, options: StoreOptions) -> Result<Store, StoreError> {
        let StoreOptions { vfs, retry, obs } = options;
        let vfs = instrumented_vfs(vfs, &obs);
        vfs.create_dir_all(dir)?;
        if !snapshot_epochs_in(&vfs, dir)?.is_empty() || vfs.exists(&dir.join(WAL_FILE)) {
            return Err(StoreError::AlreadyExists {
                path: dir.to_path_buf(),
            });
        }
        let (wal, _) = with_retry(&retry, || Wal::open_with(vfs.clone(), &dir.join(WAL_FILE)))?;
        Ok(Store {
            dir: dir.to_path_buf(),
            wal: Mutex::new(wal),
            vfs,
            retry,
            ship_watermark: AtomicU64::new(NO_WATERMARK),
            obs: StoreObs::new(obs),
        })
    }

    /// [`Store::create_with`], seeded with `image`: an encoded snapshot
    /// (from [`crate::snapshot::encode_snapshot`], or a shipped anchor whose
    /// checksums were verified). The image is written as it is to
    /// `snapshot-<epoch>.cpdb`, for the epoch its header is stamped with
    /// (tmp file, fsync, rename, directory fsync): nothing is decoded or
    /// re-encoded, and the WAL this call created empty needs no compaction.
    /// Fails with [`StoreError::Corrupt`] or
    /// [`StoreError::UnsupportedVersion`] before touching `dir` if the
    /// header is not a current snapshot's.
    pub fn create_from_image_with(
        dir: &Path,
        options: StoreOptions,
        image: &[u8],
    ) -> Result<Store, StoreError> {
        let epoch = image_epoch(image)?;
        let store = Store::create_with(dir, options)?;
        {
            let _span = store.obs.obs.span(&store.obs.snapshot);
            store.retried("snapshot write", || {
                write_atomic(&store.vfs, &snapshot_path(dir, epoch), image)
            })?;
        }
        Ok(store)
    }

    /// Opens an existing store on the production filesystem and runs
    /// recovery.
    ///
    /// Snapshots are tried newest-first; a corrupt one is skipped in favour
    /// of the next. The WAL is replayed (torn tail truncated), filtered to
    /// epochs strictly above the chosen snapshot, and checked for
    /// contiguity — a gap means the log and snapshots disagree and recovery
    /// refuses rather than serve a wrong epoch.
    pub fn open(dir: &Path) -> Result<(Store, Recovered), StoreError> {
        Store::open_with(dir, StoreOptions::default())
    }

    /// [`Store::open`] with an explicit [`Vfs`] and retry schedule.
    pub fn open_with(dir: &Path, options: StoreOptions) -> Result<(Store, Recovered), StoreError> {
        let StoreOptions { vfs, retry, obs } = options;
        let vfs = instrumented_vfs(vfs, &obs);
        let (wal, recovered) = recover(&vfs, &retry, dir)?;
        Ok((
            Store {
                dir: dir.to_path_buf(),
                wal: Mutex::new(wal),
                vfs,
                retry,
                ship_watermark: AtomicU64::new(NO_WATERMARK),
                obs: StoreObs::new(obs),
            },
            recovered,
        ))
    }

    /// Re-runs recovery on the store directory **in place**, replacing the
    /// WAL handle (and clearing any unusable mark) with a freshly opened,
    /// torn-tail-truncated one. Returns what the disk actually holds — the
    /// degraded-mode recovery probe `cpdb_live::LiveEngine::try_recover`
    /// builds on.
    pub fn reprobe(&self) -> Result<Recovered, StoreError> {
        let mut wal_guard = self.wal.lock().map_err(|_| StoreError::Poisoned)?;
        let (wal, recovered) = recover(&self.vfs, &self.retry, &self.dir)?;
        *wal_guard = wal;
        Ok(recovered)
    }

    /// Appends one WAL record; durable once this returns. Transient I/O
    /// failures are retried per the store's [`RetryPolicy`].
    pub fn append(&self, epoch: u64, delta: &TreeDelta) -> Result<(), StoreError> {
        let _span = self.obs.obs.span(&self.obs.append);
        let mut wal = self.wal.lock().map_err(|_| StoreError::Poisoned)?;
        self.retried("wal append", || wal.append(epoch, delta))?;
        self.obs
            .obs
            .event_with(EventKind::WalAppend, || format!("epoch {epoch}"));
        Ok(())
    }

    /// Appends a batch of WAL records under one fsync (group commit), with
    /// transient failures retried as a whole batch.
    pub fn append_all<'a>(
        &self,
        records: impl IntoIterator<Item = (u64, &'a TreeDelta)>,
    ) -> Result<(), StoreError> {
        let _span = self.obs.obs.span(&self.obs.append);
        let records: Vec<(u64, &TreeDelta)> = records.into_iter().collect();
        let mut wal = self.wal.lock().map_err(|_| StoreError::Poisoned)?;
        self.retried("wal append", || wal.append_all(records.iter().copied()))?;
        self.obs.obs.event_with(EventKind::WalAppend, || {
            let lo = records.first().map(|(e, _)| *e).unwrap_or(0);
            let hi = records.last().map(|(e, _)| *e).unwrap_or(0);
            format!("epochs {lo}..={hi} (group commit)")
        });
        Ok(())
    }

    /// Runs `op` under the store's retry schedule, feeding each retry into
    /// the retry counter and the flight recorder.
    fn retried<T>(
        &self,
        what: &'static str,
        op: impl FnMut() -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        with_retry_hook(&self.retry, |attempt| self.obs.retried(what, attempt), op)
    }

    /// Cuts the WAL back so no record with epoch `> epoch` remains,
    /// dropping the un-acknowledged suffix a failed append can strand when
    /// its frame reached the log but the fsync (or the rollback after it)
    /// failed. Degraded-mode recovery calls this with the published epoch
    /// — the commit point — before resuming writes.
    pub fn discard_after(&self, epoch: u64) -> Result<(), StoreError> {
        let mut wal = self.wal.lock().map_err(|_| StoreError::Poisoned)?;
        with_retry(&self.retry, || wal.discard_after(epoch))
    }

    /// Writes the snapshot for `epoch` atomically, then compacts the WAL
    /// (drops records with epoch `<= epoch`) and prunes superseded snapshot
    /// files down to the retention limit.
    ///
    /// Ordering is crash-safe: the snapshot lands (rename) before any WAL
    /// record is dropped, so every intermediate state still recovers.
    ///
    /// When a ship watermark is set ([`Store::set_ship_watermark`]),
    /// compaction is silently clamped to it: WAL records replication has
    /// not shipped yet survive the snapshot (recovery filters the overlap,
    /// so the clamp is invisible to the local reopen path), and snapshot
    /// files above the watermark are kept so the records they bridge stay
    /// re-shippable.
    pub fn write_snapshot(&self, epoch: u64, export: &EngineExport) -> Result<(), StoreError> {
        // Hold the WAL lock across the whole operation so a concurrent
        // append cannot interleave with the compaction rewrite.
        let _span = self.obs.obs.span(&self.obs.snapshot);
        let mut wal = self.wal.lock().map_err(|_| StoreError::Poisoned)?;
        self.retried("snapshot write", || {
            write_snapshot_with(&self.vfs, &snapshot_path(&self.dir, epoch), epoch, export)
        })?;
        let watermark = self.ship_watermark();
        let through = watermark.map_or(epoch, |w| epoch.min(w));
        self.retried("wal compaction", || wal.truncate_through(through))?;
        for old in snapshot_epochs_in(&self.vfs, &self.dir)?
            .into_iter()
            .skip(SNAPSHOTS_RETAINED)
        {
            if watermark.is_some_and(|w| old > w) {
                continue;
            }
            let _ = self.vfs.remove_file(&snapshot_path(&self.dir, old));
        }
        Ok(())
    }

    /// Explicitly compacts the WAL through `epoch` (drops records with
    /// epoch `<= epoch`). Unlike the clamp inside [`Store::write_snapshot`]
    /// this is loud: if a ship watermark below `epoch` is set, the request
    /// is refused with [`StoreError::RetainedForReplica`] — honouring it
    /// would strand every follower that has not fetched those records yet.
    pub fn compact_wal_through(&self, epoch: u64) -> Result<(), StoreError> {
        if let Some(watermark) = self.ship_watermark() {
            if epoch > watermark {
                return Err(StoreError::RetainedForReplica { epoch, watermark });
            }
        }
        let mut wal = self.wal.lock().map_err(|_| StoreError::Poisoned)?;
        with_retry(&self.retry, || wal.truncate_through(epoch))
    }

    /// Marks every epoch `<= epoch` as shipped to replicas. Compaction
    /// (snapshot-triggered or explicit) will retain WAL records above the
    /// watermark so lagging followers can always catch up. The watermark
    /// only moves forward; calls with a lower epoch are no-ops. (Shipping
    /// is single-writer — the one `Primary` attached to this store — so a
    /// load/store pair suffices here.)
    pub fn set_ship_watermark(&self, epoch: u64) {
        let current = self.ship_watermark.load(Ordering::SeqCst);
        let next = if current == NO_WATERMARK {
            epoch
        } else {
            current.max(epoch)
        };
        self.ship_watermark.store(next, Ordering::SeqCst);
    }

    /// Clears the ship watermark: compaction becomes unconstrained again
    /// (replication torn down, or every follower decommissioned).
    pub fn clear_ship_watermark(&self) {
        self.ship_watermark.store(NO_WATERMARK, Ordering::SeqCst);
    }

    /// The current ship watermark, or `None` when replication has never
    /// shipped (compaction unconstrained).
    pub fn ship_watermark(&self) -> Option<u64> {
        match self.ship_watermark.load(Ordering::SeqCst) {
            NO_WATERMARK => None,
            epoch => Some(epoch),
        }
    }

    /// Every intact WAL record currently on disk, in epoch order — a
    /// read-only scan under the WAL lock (no truncation). The segment
    /// shipper cuts shipped segments from this.
    pub fn wal_records(&self) -> Result<Vec<(u64, TreeDelta)>, StoreError> {
        let _wal = self.wal.lock().map_err(|_| StoreError::Poisoned)?;
        let bytes = with_retry(&self.retry, || {
            Ok(self.vfs.read(&self.dir.join(WAL_FILE))?)
        })?;
        let (records, _) = crate::wal::scan_wal_bytes(&bytes)?;
        Ok(records)
    }

    /// Reads the snapshot file stamped `epoch` back from disk — the segment
    /// shipper uses this to ship an anchor image without holding an engine
    /// export in memory.
    pub fn read_snapshot(&self, epoch: u64) -> Result<EngineExport, StoreError> {
        let (stamped, export) = with_retry(&self.retry, || {
            read_snapshot_with(&self.vfs, &snapshot_path(&self.dir, epoch))
        })?;
        if stamped != epoch {
            return Err(StoreError::Corrupt {
                context: format!("snapshot file named for epoch {epoch} is stamped {stamped}"),
            });
        }
        Ok(export)
    }

    /// Deep-scans the store directory: every snapshot, WAL record, shipped
    /// segment, anchor, and manifest re-checked (all CRCs, epoch
    /// contiguity, manifest cross-references). See [`crate::verify`].
    pub fn verify(&self) -> Result<crate::verify::VerifyOutcome, StoreError> {
        crate::verify::verify_dir_with(&self.vfs, &self.dir)
    }

    /// The [`Vfs`] this store's file operations route through — shared with
    /// the replication transport so chaos injection covers shipping too.
    pub fn vfs(&self) -> Arc<dyn Vfs> {
        self.vfs.clone()
    }

    /// The observability sink this store reports to ([`StoreOptions::obs`]).
    pub fn obs(&self) -> &Obs {
        &self.obs.obs
    }

    /// The store's retry schedule for durable writes.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Epochs of the snapshot files currently on disk, newest first.
    pub fn snapshot_epochs(&self) -> Result<Vec<u64>, StoreError> {
        snapshot_epochs_in(&self.vfs, &self.dir)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The WAL file path (exposed for crash-injection tests).
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join(WAL_FILE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultVfs;
    use cpdb_andxor::{AndXorTreeBuilder, RawDelta};
    use cpdb_engine::ConsensusEngineBuilder;
    use std::io;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn temp_dir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cpdb_store_test_{}_{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn export_for_seed(seed: u64) -> EngineExport {
        let mut b = AndXorTreeBuilder::new();
        let l1 = b.leaf_parts(1, 90.0);
        let l2 = b.leaf_parts(2, 80.0);
        let x1 = b.xor_node(vec![(l1, 0.6)]);
        let x2 = b.xor_node(vec![(l2, 0.5)]);
        let root = b.and_node(vec![x1, x2]);
        let tree = b.build(root).unwrap();
        ConsensusEngineBuilder::new(tree)
            .seed(seed)
            .build()
            .unwrap()
            .export()
    }

    fn delta(epoch: u64) -> TreeDelta {
        TreeDelta::from_raw(&RawDelta::LeafValue {
            leaf: 0,
            value: epoch as f64,
        })
    }

    fn fault_options(vfs: &FaultVfs) -> StoreOptions {
        StoreOptions {
            vfs: Arc::new(vfs.clone()),
            retry: RetryPolicy::no_delay(3),
            ..StoreOptions::default()
        }
    }

    #[test]
    fn create_refuses_existing_store() {
        let dir = temp_dir();
        Store::create(&dir).unwrap();
        assert!(matches!(
            Store::create(&dir),
            Err(StoreError::AlreadyExists { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_recovers_snapshot_plus_wal_suffix() {
        let dir = temp_dir();
        let export = export_for_seed(3);
        {
            let store = Store::create(&dir).unwrap();
            store.append(1, &delta(1)).unwrap();
            store.append(2, &delta(2)).unwrap();
            store.write_snapshot(2, &export).unwrap();
            store.append(3, &delta(3)).unwrap();
            store.append(4, &delta(4)).unwrap();
        }
        let (_store, recovered) = Store::open(&dir).unwrap();
        let (snap_epoch, snap_export) = recovered.snapshot.unwrap();
        assert_eq!(snap_epoch, 2);
        assert_eq!(snap_export, export);
        assert_eq!(
            recovered.wal.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
            vec![3, 4]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uncompacted_wal_overlap_is_filtered() {
        // Crash window: snapshot written, compaction never ran. The WAL
        // still holds epochs <= snapshot; recovery must drop them.
        let dir = temp_dir();
        let export = export_for_seed(3);
        {
            let store = Store::create(&dir).unwrap();
            store.append(1, &delta(1)).unwrap();
            store.append(2, &delta(2)).unwrap();
            crate::snapshot::write_snapshot(&snapshot_path(&dir, 2), 2, &export).unwrap();
            store.append(3, &delta(3)).unwrap();
        }
        let (_store, recovered) = Store::open(&dir).unwrap();
        assert_eq!(recovered.snapshot.as_ref().unwrap().0, 2);
        assert_eq!(
            recovered.wal.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
            vec![3]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_when_wal_bridges() {
        // Crash window: snapshot 2 landed (rename) but was later bit-rotted
        // and compaction never ran — the WAL still bridges from snapshot 1.
        let dir = temp_dir();
        let export = export_for_seed(3);
        {
            let store = Store::create(&dir).unwrap();
            store.append(1, &delta(1)).unwrap();
            store.write_snapshot(1, &export).unwrap();
            store.append(2, &delta(2)).unwrap();
            crate::snapshot::write_snapshot(&snapshot_path(&dir, 2), 2, &export).unwrap();
            store.append(3, &delta(3)).unwrap();
        }
        // Rot the newest snapshot's final byte (inside a checksummed
        // section payload).
        let newest = snapshot_path(&dir, 2);
        let mut bytes = std::fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();

        let (_store, recovered) = Store::open(&dir).unwrap();
        assert_eq!(recovered.snapshot.as_ref().unwrap().0, 1);
        assert_eq!(
            recovered.wal.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
            vec![2, 3]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_snapshot_after_compaction_is_refused() {
        // Once the WAL has been compacted through epoch 2, a rotted
        // snapshot 2 is unrecoverable: the fallback snapshot 1 cannot
        // bridge to the surviving suffix, and recovery must refuse rather
        // than silently skip an acknowledged epoch.
        let dir = temp_dir();
        let export = export_for_seed(3);
        {
            let store = Store::create(&dir).unwrap();
            store.append(1, &delta(1)).unwrap();
            store.write_snapshot(1, &export).unwrap();
            store.append(2, &delta(2)).unwrap();
            store.write_snapshot(2, &export).unwrap();
            store.append(3, &delta(3)).unwrap();
        }
        let newest = snapshot_path(&dir, 2);
        let mut bytes = std::fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();

        assert!(matches!(Store::open(&dir), Err(StoreError::Corrupt { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gap_in_wal_suffix_is_refused() {
        let dir = temp_dir();
        {
            let store = Store::create(&dir).unwrap();
            store.append(1, &delta(1)).unwrap();
            store.append(3, &delta(3)).unwrap(); // epoch 2 missing
        }
        assert!(matches!(Store::open(&dir), Err(StoreError::Corrupt { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_retention_prunes_old_files() {
        let dir = temp_dir();
        let export = export_for_seed(3);
        let store = Store::create(&dir).unwrap();
        for epoch in 1..=5u64 {
            store.append(epoch, &delta(epoch)).unwrap();
            store.write_snapshot(epoch, &export).unwrap();
        }
        assert_eq!(store.snapshot_epochs().unwrap(), vec![5, 4]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_directory_recovers_to_nothing() {
        let dir = temp_dir();
        let (_store, recovered) = Store::open(&dir).unwrap();
        assert!(recovered.snapshot.is_none());
        assert!(recovered.wal.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn transient_append_faults_are_retried_invisibly() {
        let vfs = FaultVfs::new();
        let dir = PathBuf::from("/mem/store");
        let store = Store::create_with(&dir, fault_options(&vfs)).unwrap();
        store.append(1, &delta(1)).unwrap();
        // One transient write failure: the retry layer absorbs it.
        vfs.fail_at(vfs.op_count(), io::ErrorKind::Interrupted, false);
        store.append(2, &delta(2)).unwrap();
        drop(store);
        let (_store, recovered) = Store::open_with(&dir, fault_options(&vfs)).unwrap();
        assert_eq!(
            recovered.wal.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
            vec![1, 2]
        );
    }

    #[test]
    fn permanent_append_faults_fail_fast_and_reprobe_restores_service() {
        let vfs = FaultVfs::new();
        let dir = PathBuf::from("/mem/store");
        let store = Store::create_with(&dir, fault_options(&vfs)).unwrap();
        store.append(1, &delta(1)).unwrap();
        // ENOSPC on the record write: permanent, no retry (the rollback
        // truncate itself still succeeds — shrinking needs no space).
        vfs.fail_at(vfs.op_count(), io::ErrorKind::StorageFull, false);
        assert!(matches!(
            store.append(2, &delta(2)),
            Err(StoreError::Io(e)) if e.kind() == io::ErrorKind::StorageFull
        ));
        // Space freed: reprobe reopens the WAL and appends resume.
        vfs.clear_faults();
        let recovered = store.reprobe().unwrap();
        assert_eq!(recovered.epoch(), 1);
        store.append(2, &delta(2)).unwrap();
        drop(store);
        let (_store, recovered) = Store::open_with(&dir, fault_options(&vfs)).unwrap();
        assert_eq!(
            recovered.wal.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
            vec![1, 2]
        );
    }

    #[test]
    fn ship_watermark_clamps_compaction_until_shipping_catches_up() {
        let dir = temp_dir();
        let export = export_for_seed(3);
        let store = Store::create(&dir).unwrap();
        for epoch in 1..=4u64 {
            store.append(epoch, &delta(epoch)).unwrap();
        }
        store.set_ship_watermark(2);
        store.write_snapshot(4, &export).unwrap();
        // Epochs 3 and 4 were never shipped: the snapshot's compaction is
        // clamped and they survive for the shipper.
        assert_eq!(
            store
                .wal_records()
                .unwrap()
                .iter()
                .map(|(e, _)| *e)
                .collect::<Vec<_>>(),
            vec![3, 4]
        );
        // An explicit compaction past the watermark is refused loudly.
        assert!(matches!(
            store.compact_wal_through(4),
            Err(StoreError::RetainedForReplica {
                epoch: 4,
                watermark: 2
            })
        ));
        // The clamp is invisible to recovery: the snapshot covers the
        // retained overlap.
        let (_s, recovered) = Store::open(&dir).unwrap();
        assert_eq!(recovered.epoch(), 4);
        assert!(recovered.wal.is_empty());
        // Once shipping catches up, compaction goes through.
        store.set_ship_watermark(4);
        store.compact_wal_through(4).unwrap();
        assert!(store.wal_records().unwrap().is_empty());
        // The watermark never moves backwards, and clearing lifts it.
        store.set_ship_watermark(1);
        assert_eq!(store.ship_watermark(), Some(4));
        store.clear_ship_watermark();
        assert_eq!(store.ship_watermark(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn power_loss_mid_snapshot_write_leaves_old_state_recoverable() {
        let vfs = FaultVfs::new();
        let dir = PathBuf::from("/mem/store");
        let export = export_for_seed(3);
        let store = Store::create_with(&dir, fault_options(&vfs)).unwrap();
        store.append(1, &delta(1)).unwrap();
        store.append(2, &delta(2)).unwrap();
        // Power dies somewhere inside write_snapshot (tmp write / fsync /
        // rename / dir fsync / compaction): whatever the cut point, reopen
        // must still reconstruct epoch 2.
        let start = vfs.op_count();
        store.write_snapshot(2, &export).unwrap();
        let end = vfs.op_count();
        drop(store);
        for cut in start..end {
            let replay = FaultVfs::new();
            let opts = fault_options(&replay);
            let s = Store::create_with(&dir, opts.clone()).unwrap();
            s.append(1, &delta(1)).unwrap();
            s.append(2, &delta(2)).unwrap();
            replay.halt_at(cut);
            let _ = s.write_snapshot(2, &export);
            drop(s);
            replay.crash();
            let (_s, recovered) = Store::open_with(&dir, opts).unwrap();
            assert_eq!(recovered.epoch(), 2, "power cut at op {cut}");
        }
    }

    /// Passes every call to `inner`, except that the `sync_dir` call with
    /// index `fail_at` (counted from 0) fails once as interrupted.
    #[derive(Debug)]
    struct FlakyDirSync {
        inner: FaultVfs,
        dir_syncs: AtomicU64,
        fail_at: AtomicU64,
    }

    impl FlakyDirSync {
        /// Arms the fault on the `nth` directory sync from now (0 = next).
        fn fail_dir_sync(&self, nth: u64) {
            let next = self.dir_syncs.load(Ordering::SeqCst);
            self.fail_at.store(next + nth, Ordering::SeqCst);
        }

        fn fired(&self) -> bool {
            self.dir_syncs.load(Ordering::SeqCst) > self.fail_at.load(Ordering::SeqCst)
        }
    }

    impl Vfs for FlakyDirSync {
        fn open_rw(&self, path: &Path) -> io::Result<Box<dyn crate::vfs::VfsFile>> {
            self.inner.open_rw(path)
        }
        fn create_truncated(&self, path: &Path) -> io::Result<Box<dyn crate::vfs::VfsFile>> {
            self.inner.create_truncated(path)
        }
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            self.inner.read(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            self.inner.rename(from, to)
        }
        fn remove_file(&self, path: &Path) -> io::Result<()> {
            self.inner.remove_file(path)
        }
        fn sync_dir(&self, dir: &Path) -> io::Result<()> {
            if self.dir_syncs.fetch_add(1, Ordering::SeqCst) == self.fail_at.load(Ordering::SeqCst)
            {
                return Err(io::Error::new(io::ErrorKind::Interrupted, "flaky dir sync"));
            }
            self.inner.sync_dir(dir)
        }
        fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
            self.inner.create_dir_all(dir)
        }
        fn read_dir_names(&self, dir: &Path) -> io::Result<Vec<String>> {
            self.inner.read_dir_names(dir)
        }
        fn exists(&self, path: &Path) -> bool {
            self.inner.exists(path)
        }
    }

    #[test]
    fn compaction_retried_after_a_failed_dir_sync_keeps_every_acknowledged_epoch() {
        let vfs = FaultVfs::new();
        let flaky = Arc::new(FlakyDirSync {
            inner: vfs.clone(),
            dir_syncs: AtomicU64::new(0),
            fail_at: AtomicU64::new(u64::MAX),
        });
        let options = StoreOptions {
            vfs: flaky.clone(),
            retry: RetryPolicy::no_delay(3),
            ..StoreOptions::default()
        };
        let dir = PathBuf::from("/mem/store");
        let store = Store::create_with(&dir, options.clone()).unwrap();
        for epoch in 1..=3 {
            store.append(epoch, &delta(epoch)).unwrap();
        }
        // The snapshot's rename syncs the directory first; the compaction's
        // sync fails once, after its rename. The retry finds no record at
        // or below epoch 3 left to drop, and must still sync the directory.
        flaky.fail_dir_sync(1);
        store.write_snapshot(3, &export_for_seed(3)).unwrap();
        assert!(flaky.fired());
        store.append(4, &delta(4)).unwrap();
        store.append(5, &delta(5)).unwrap();
        drop(store);
        vfs.crash();
        let (_store, recovered) = Store::open_with(&dir, options).unwrap();
        assert_eq!(recovered.snapshot.as_ref().map(|(e, _)| *e), Some(3));
        assert_eq!(
            recovered.wal.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
            vec![4, 5]
        );
    }

    #[test]
    fn a_store_seeded_from_an_image_holds_it_byte_for_byte() {
        let vfs = FaultVfs::new();
        let obs = Obs::enabled();
        let options = StoreOptions {
            obs: obs.clone(),
            ..fault_options(&vfs)
        };
        let dir = PathBuf::from("/mem/store");
        let export = export_for_seed(3);
        let image = crate::snapshot::encode_snapshot(7, &export);
        let store = Store::create_from_image_with(&dir, options.clone(), &image).unwrap();
        assert_eq!(store.snapshot_epochs().unwrap(), vec![7]);
        // One fsync for the fresh WAL, one for the image, one directory
        // sync for its rename; the empty WAL is not compacted.
        let snap = obs.snapshot();
        assert_eq!(snap.counter("store.vfs.fsyncs"), Some(2));
        assert_eq!(snap.counter("store.vfs.dir_syncs"), Some(1));
        assert_eq!(
            snap.histogram("store.snapshot.write").map(|h| h.count),
            Some(1)
        );
        store.append(8, &delta(8)).unwrap();
        drop(store);
        vfs.crash();
        assert_eq!(
            vfs.durable_contents(&snapshot_path(&dir, 7)),
            Some(image.clone())
        );
        let (_store, recovered) = Store::open_with(&dir, options.clone()).unwrap();
        assert_eq!(recovered.snapshot, Some((7, export)));
        assert_eq!(recovered.epoch(), 8);
        // A seeded directory is a store: seeding it again is refused.
        assert!(matches!(
            Store::create_from_image_with(&dir, options, &image),
            Err(StoreError::AlreadyExists { .. })
        ));
    }

    #[test]
    fn seeding_refuses_a_foreign_image_before_touching_the_directory() {
        let vfs = FaultVfs::new();
        let dir = PathBuf::from("/mem/store");
        let mut image = crate::snapshot::encode_snapshot(7, &export_for_seed(3));
        image[8..12].copy_from_slice(&5u32.to_le_bytes());
        assert!(matches!(
            Store::create_from_image_with(&dir, fault_options(&vfs), &image),
            Err(StoreError::UnsupportedVersion { found: 5 })
        ));
        assert!(matches!(
            Store::create_from_image_with(&dir, fault_options(&vfs), b"CPDBWAL1"),
            Err(StoreError::Corrupt { .. })
        ));
        assert!(!vfs.exists(&dir.join(WAL_FILE)));
    }
}
