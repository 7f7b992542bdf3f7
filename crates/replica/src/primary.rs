//! The shipping side: a writer engine that publishes its WAL as a
//! verified segment chain.

use crate::obs::ReplicaObs;
use crate::ReplicaError;
use cpdb_live::{
    AppliedDelta, ComponentHealth, Health, LiveEngine, ReplicaRole, ReplicationStatus, Snapshot,
    TreeDelta,
};
use cpdb_store::ship::{
    read_fence_with, read_manifest_with, write_anchor_with, write_fence_with, write_manifest_with,
    write_segment_with, Manifest,
};
use cpdb_store::{Store, StoreError, Vfs};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// A writer engine attached to an outbox directory it ships WAL segments
/// into.
///
/// Ownership of the outbox is arbitrated by the outbox's **fence file**,
/// which only promotions (and the initial claim) write — shipping never
/// rewrites it. Every write-path operation reads that file and compares it
/// to the token this primary durably holds in its own store directory; a
/// newer token means another node was promoted and the operation fails
/// with [`ReplicaError::Fenced`] instead of splitting the brain.
///
/// Because file renames are not compare-and-swap, a fenced writer racing a
/// promotion can still clobber the *manifest* with one last commit. Two
/// rules bound that race to a single superseded manifest:
///
/// * after every manifest commit the writer re-reads the fence and stands
///   down (without adopting the commit) if it lost, and
/// * the manifest a primary evolves lives **in memory** — disk contents
///   are never re-adopted, so the next ship rewrites the full chain and
///   heals any clobber instead of splicing a foreign chain onto its own.
pub struct Primary {
    live: LiveEngine,
    outbox_vfs: Arc<dyn Vfs>,
    outbox: PathBuf,
    held_token: u64,
    manifest: Mutex<Manifest>,
    obs: ReplicaObs,
}

impl Primary {
    /// Attaches a durable engine to `outbox`.
    ///
    /// A fresh outbox is claimed by writing fencing token 1 (or the token
    /// already held in the store directory, if larger) into both fence
    /// files and committing an empty manifest. An existing outbox is only
    /// accepted if neither its fence file nor its manifest carries a token
    /// newer than the held one — a revived old primary finds the promoted
    /// follower's token and is refused. A chain written under an *older*
    /// token (a fenced writer's lost-race manifest, or this node's own
    /// interrupted claim) is discarded and rebased on an anchor cut from
    /// this engine's own state.
    pub fn attach(
        live: LiveEngine,
        outbox_vfs: Arc<dyn Vfs>,
        outbox: &Path,
    ) -> Result<Primary, ReplicaError> {
        let store = live.store().ok_or(ReplicaError::NotDurable)?;
        let store_vfs = store.vfs();
        let store_dir = store.dir().to_path_buf();
        outbox_vfs
            .create_dir_all(outbox)
            .map_err(StoreError::from)?;
        let held_opt = read_fence_with(&store_vfs, &store_dir)?;
        let held = held_opt.unwrap_or(0);
        let outbox_token = read_fence_with(&outbox_vfs, outbox)?.unwrap_or(0);
        let disk = match read_manifest_with(&outbox_vfs, outbox) {
            Ok(manifest) => Some(manifest),
            Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };
        let chain_token = outbox_token.max(disk.as_ref().map_or(0, |m| m.fencing_token));
        let (held_token, manifest, needs_commit) = if disk.is_none() && outbox_token == 0 {
            // Fresh outbox: claim it.
            let token = held.max(1);
            (
                token,
                Manifest {
                    fencing_token: token,
                    ..Manifest::default()
                },
                true,
            )
        } else if chain_token > held {
            return Err(ReplicaError::Fenced {
                held,
                manifest: chain_token,
            });
        } else if let Some(manifest) = disk.filter(|m| m.fencing_token == held) {
            (held, manifest, false)
        } else {
            // The on-disk chain was written under an older token; rebase
            // it on this engine's own durable state.
            let token = held.max(1);
            let snapshot = live.snapshot();
            let entry = write_anchor_with(
                &outbox_vfs,
                outbox,
                snapshot.epoch(),
                &snapshot.engine().export(),
            )?;
            (
                token,
                Manifest {
                    fencing_token: token,
                    anchor: Some(entry),
                    ..Manifest::default()
                },
                true,
            )
        };
        if held_opt != Some(held_token) {
            write_fence_with(&store_vfs, &store_dir, held_token)?;
        }
        if outbox_token < held_token {
            write_fence_with(&outbox_vfs, outbox, held_token)?;
        }
        if needs_commit {
            write_manifest_with(&outbox_vfs, outbox, &manifest)?;
        }
        let fence_now = read_fence_with(&outbox_vfs, outbox)?.unwrap_or(0);
        if fence_now > held_token {
            return Err(ReplicaError::Fenced {
                held: held_token,
                manifest: fence_now,
            });
        }
        store.set_ship_watermark(manifest.shipped_epoch());
        let shipped = manifest.shipped_epoch();
        let obs = ReplicaObs::new(live.obs().clone());
        let primary = Primary {
            live,
            outbox_vfs,
            outbox: outbox.to_path_buf(),
            held_token,
            manifest: Mutex::new(manifest),
            obs,
        };
        primary.publish_status(shipped);
        Ok(primary)
    }

    /// Reassembles a primary after a promotion already wrote the fences
    /// and manifest; the invariants [`attach`](Primary::attach) checks are
    /// established by the caller.
    pub(crate) fn assume(
        live: LiveEngine,
        outbox_vfs: Arc<dyn Vfs>,
        outbox: PathBuf,
        held_token: u64,
        manifest: Manifest,
    ) -> Primary {
        let shipped = manifest.shipped_epoch();
        let obs = ReplicaObs::new(live.obs().clone());
        let primary = Primary {
            live,
            outbox_vfs,
            outbox,
            held_token,
            manifest: Mutex::new(manifest),
            obs,
        };
        primary.publish_status(shipped);
        primary
    }

    /// The manifest this primary evolves, independent of disk contents.
    fn lock_manifest(&self) -> Result<MutexGuard<'_, Manifest>, ReplicaError> {
        self.manifest
            .lock()
            .map_err(|_| ReplicaError::Store(StoreError::Poisoned))
    }

    /// Reads the outbox fence file and refuses the operation if a newer
    /// fencing token has been published there. Called both *before* an
    /// operation (fail fast) and *after* every manifest commit: a fenced
    /// writer racing a promotion can clobber the manifest once, but the
    /// fence file — which ships never rewrite — always names the winner.
    fn check_fence(&self) -> Result<(), ReplicaError> {
        let token = read_fence_with(&self.outbox_vfs, &self.outbox)?.unwrap_or(0);
        if token > self.held_token {
            self.live.set_replication(Some(ReplicationStatus {
                role: ReplicaRole::Primary,
                epoch: self.live.epoch(),
                lag: 0,
                link: ComponentHealth::Degraded {
                    reason: format!(
                        "fenced: outbox fence token {token} is newer than held token {}",
                        self.held_token
                    ),
                },
            }));
            self.obs.degraded(|| {
                format!(
                    "fenced: outbox token {token} is newer than held token {}",
                    self.held_token
                )
            });
            return Err(ReplicaError::Fenced {
                held: self.held_token,
                manifest: token,
            });
        }
        Ok(())
    }

    /// Applies one delta after confirming this node still owns the chain.
    pub fn apply(&self, delta: &TreeDelta) -> Result<AppliedDelta, ReplicaError> {
        self.check_fence()?;
        Ok(self.live.apply(delta)?)
    }

    /// Applies a batch atomically after confirming chain ownership
    /// ([`LiveEngine::apply_all`]): one outcome for the published epoch,
    /// whose report covers the whole run, or `None` for an empty batch.
    pub fn apply_all(&self, deltas: &[TreeDelta]) -> Result<Option<AppliedDelta>, ReplicaError> {
        self.check_fence()?;
        Ok(self.live.apply_all(deltas)?)
    }

    /// Ships everything applied so far: cuts the WAL run since the last
    /// shipped epoch into one immutable segment, appends it to the
    /// manifest, and commits by rewriting the manifest. The first ship
    /// (and any ship whose WAL run was already compacted away) ships a
    /// full snapshot anchor instead. Returns the shipped epoch.
    pub fn ship(&self) -> Result<u64, ReplicaError> {
        self.check_fence()?;
        let store = self.live.store().ok_or(ReplicaError::NotDurable)?;
        let snapshot = self.live.snapshot();
        let epoch = snapshot.epoch();
        let mut manifest = self.lock_manifest()?;
        if manifest.anchor.is_none() {
            return self.reanchor(&mut manifest, &snapshot, store);
        }
        let shipped = manifest.shipped_epoch();
        if epoch <= shipped {
            // Nothing new to ship — but if a fenced writer's lost-race
            // commit clobbered the on-disk manifest, rewrite our copy.
            self.repair_manifest(&manifest)?;
            self.publish_status(shipped);
            return Ok(shipped);
        }
        let records: Vec<(u64, TreeDelta)> = store
            .wal_records()?
            .into_iter()
            .filter(|(e, _)| *e > shipped && *e <= epoch)
            .collect();
        let covers_run = records.first().is_some_and(|(e, _)| *e == shipped + 1)
            && records.last().is_some_and(|(e, _)| *e == epoch)
            && records.len() as u64 == epoch - shipped;
        if !covers_run {
            // The WAL no longer holds the full run (compacted before the
            // watermark was set): rebase the chain on a fresh anchor.
            return self.reanchor(&mut manifest, &snapshot, store);
        }
        let meta = write_segment_with(&self.outbox_vfs, &self.outbox, &records)?;
        let mut next = manifest.clone();
        next.fencing_token = self.held_token;
        next.segments.push(meta);
        write_manifest_with(&self.outbox_vfs, &self.outbox, &next)?;
        self.check_fence()?;
        *manifest = next;
        store.set_ship_watermark(epoch);
        self.obs.shipped_segment(&meta);
        self.publish_status(epoch);
        Ok(epoch)
    }

    /// Rewrites the on-disk manifest from the in-memory copy if they
    /// differ. This heals the one manifest clobber a fenced writer can
    /// land before its post-commit fence check stands it down, without
    /// shipping anything new.
    fn repair_manifest(&self, manifest: &Manifest) -> Result<(), ReplicaError> {
        let matches = match read_manifest_with(&self.outbox_vfs, &self.outbox) {
            Ok(disk) => disk == *manifest,
            // Missing or unreadable: rewrite it either way.
            Err(_) => false,
        };
        if !matches {
            write_manifest_with(&self.outbox_vfs, &self.outbox, manifest)?;
            self.check_fence()?;
        }
        Ok(())
    }

    /// Ships a fresh snapshot anchor at the current epoch and drops the
    /// segment chain behind it, bounding follower catch-up work and
    /// letting the outbox forget old segments. Returns the anchor epoch.
    pub fn rotate_anchor(&self) -> Result<u64, ReplicaError> {
        self.check_fence()?;
        let store = self.live.store().ok_or(ReplicaError::NotDurable)?;
        let snapshot = self.live.snapshot();
        let mut manifest = self.lock_manifest()?;
        self.reanchor(&mut manifest, &snapshot, store)
    }

    /// Writes an anchor at `snapshot`'s epoch and commits a manifest whose
    /// chain restarts there. Superseded files are removed only after the
    /// manifest commit (and its fence re-check), so a crash mid-rotation
    /// never orphans the chain.
    fn reanchor(
        &self,
        manifest: &mut Manifest,
        snapshot: &Snapshot,
        store: &Arc<Store>,
    ) -> Result<u64, ReplicaError> {
        let epoch = snapshot.epoch();
        let entry = write_anchor_with(
            &self.outbox_vfs,
            &self.outbox,
            epoch,
            &snapshot.engine().export(),
        )?;
        let mut next = manifest.clone();
        next.fencing_token = self.held_token;
        let old_anchor = next.anchor.replace(entry);
        let old_segments = std::mem::take(&mut next.segments);
        write_manifest_with(&self.outbox_vfs, &self.outbox, &next)?;
        self.check_fence()?;
        *manifest = next;
        store.set_ship_watermark(epoch);
        self.obs.shipped_anchor(epoch, entry.2);
        for meta in &old_segments {
            let _ = self
                .outbox_vfs
                .remove_file(&self.outbox.join(meta.file_name()));
        }
        if let Some((old_epoch, _, _)) = old_anchor {
            if old_epoch != epoch {
                let _ = self.outbox_vfs.remove_file(
                    &self
                        .outbox
                        .join(cpdb_store::ship::anchor_file_name(old_epoch)),
                );
            }
        }
        self.publish_status(epoch);
        Ok(epoch)
    }

    fn publish_status(&self, shipped: u64) {
        let lag = self.live.epoch().saturating_sub(shipped);
        self.obs.set_lag(lag);
        self.live.set_replication(Some(ReplicationStatus {
            role: ReplicaRole::Primary,
            epoch: shipped,
            lag,
            link: ComponentHealth::Healthy,
        }));
    }

    /// A read snapshot of the wrapped engine.
    pub fn snapshot(&self) -> Snapshot {
        self.live.snapshot()
    }

    /// The current served epoch.
    pub fn epoch(&self) -> u64 {
        self.live.epoch()
    }

    /// The fencing token this primary durably holds.
    pub fn held_token(&self) -> u64 {
        self.held_token
    }

    /// Engine health, including the replication link.
    pub fn health(&self) -> Health {
        self.live.health()
    }

    /// The wrapped live engine (reads and maintenance; writes should go
    /// through [`apply`](Primary::apply) so they stay behind the fence).
    pub fn live(&self) -> &LiveEngine {
        &self.live
    }

    /// Detaches and returns the wrapped engine.
    pub fn into_live(self) -> LiveEngine {
        self.live
    }
}
