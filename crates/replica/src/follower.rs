//! The replay side: a read-only engine that tails the shipped chain.

use crate::obs::ReplicaObs;
use crate::{Primary, ReplicaError, Transport, FETCH_ATTEMPTS};
use cpdb_engine::{ConsensusEngine, EngineExport};
use cpdb_live::{
    ComponentHealth, Health, LiveEngine, LiveError, ReplicaRole, ReplicationStatus, Snapshot,
    TreeDelta,
};
use cpdb_store::ship::{
    decode_manifest, read_fence_with, read_manifest_with, read_replica_manifest_with,
    verify_anchor_bytes, verify_segment_bytes, write_anchor_with, write_fence_with,
    write_manifest_with, write_replica_manifest_with, Manifest, SegmentMeta, MANIFEST_FILE,
};
use cpdb_store::store::StoreOptions;
use cpdb_store::{Store, StoreError};
use std::io;
use std::path::{Path, PathBuf};

/// A read replica: bootstraps from the shipped anchor, replays verified
/// segments into a local durable [`LiveEngine`], and serves snapshots at
/// its applied epoch.
///
/// A cold bootstrap installs the anchor once: the verified bytes are
/// written as they are as the local snapshot file, and the engine is
/// imported from the export their verification decoded. A sync replays
/// the whole verified tail as one batch on one working tree.
///
/// Every fetched byte is verified against the manifest before replay;
/// damaged ships are quarantined and re-fetched, and on persistent damage
/// [`sync`](Follower::sync) fails **without** touching the served state —
/// readers keep answering from the last verified epoch.
///
/// The manifest this follower last adopted is recorded durably next to its
/// local store, so a restart knows which writer's fencing token its state
/// was replayed under. When a fetched manifest carries a *newer* token and
/// the local applied epoch is ahead of the new writer's anchor, the local
/// suffix belongs to a dead history: the follower discards it and
/// rebootstraps instead of splicing two chains. A manifest carrying an
/// *older* token (a fenced writer's lost-race commit) is refused with
/// [`ReplicaError::StaleManifest`].
pub struct Follower {
    transport: Transport,
    live: LiveEngine,
    store_dir: PathBuf,
    options: StoreOptions,
    manifest: Manifest,
    obs: ReplicaObs,
}

/// Fetches the manifest, quarantining and re-fetching damaged copies.
fn fetch_manifest(transport: &Transport, obs: &ReplicaObs) -> Result<Manifest, ReplicaError> {
    let mut last: Option<StoreError> = None;
    for _ in 0..FETCH_ATTEMPTS {
        match transport.fetch(MANIFEST_FILE) {
            Ok(bytes) => match decode_manifest(&bytes) {
                Ok(manifest) => {
                    manifest.validate()?;
                    return Ok(manifest);
                }
                Err(e) => {
                    let _ = transport.quarantine(MANIFEST_FILE);
                    obs.quarantined(MANIFEST_FILE);
                    last = Some(e);
                }
            },
            Err(e) => last = Some(e),
        }
    }
    Err(ReplicaError::SegmentUnavailable {
        name: MANIFEST_FILE.to_string(),
        context: last.map(|e| e.to_string()).unwrap_or_default(),
    })
}

/// Fetches and verifies the manifest's anchor image, quarantining and
/// re-fetching damaged copies. Returns the anchor's epoch, its verified
/// bytes and the export decoded from them.
fn fetch_anchor(
    transport: &Transport,
    manifest: &Manifest,
    obs: &ReplicaObs,
) -> Result<(u64, Vec<u8>, EngineExport), ReplicaError> {
    let Some(entry) = manifest.anchor else {
        return Err(ReplicaError::SegmentUnavailable {
            name: MANIFEST_FILE.to_string(),
            context: "manifest has no anchor to bootstrap from".to_string(),
        });
    };
    let name = cpdb_store::ship::anchor_file_name(entry.0);
    let mut last: Option<StoreError> = None;
    for _ in 0..FETCH_ATTEMPTS {
        match transport.fetch(&name) {
            Ok(bytes) => match verify_anchor_bytes(&bytes, entry) {
                Ok(export) => return Ok((entry.0, bytes, export)),
                // The file passed its manifest length and checksum, so a
                // foreign format version is what the primary wrote, not
                // damage: no re-fetch can fix it.
                Err(e @ StoreError::UnsupportedVersion { .. }) => return Err(e.into()),
                Err(e) => {
                    let _ = transport.quarantine(&name);
                    obs.quarantined(&name);
                    last = Some(e);
                }
            },
            Err(e) => last = Some(e),
        }
    }
    Err(ReplicaError::SegmentUnavailable {
        name,
        context: last.map(|e| e.to_string()).unwrap_or_default(),
    })
}

/// Creates a fresh local store seeded from the shipped anchor, records the
/// manifest the state was built from, and serves a durable engine on it.
///
/// The anchor is decoded once, when it is verified. Its verified bytes are
/// already a checksummed snapshot image, so they become the local
/// `snapshot-<epoch>.cpdb` as they are
/// ([`Store::create_from_image_with`]), and the engine is imported from the
/// export the verification decoded; nothing is re-encoded or read back.
fn bootstrap(
    transport: &Transport,
    manifest: &Manifest,
    store_dir: &Path,
    options: StoreOptions,
    obs: &ReplicaObs,
) -> Result<LiveEngine, ReplicaError> {
    let (epoch, image, export) = fetch_anchor(transport, manifest, obs)?;
    // Probing for local state leaves an empty WAL behind, and a
    // re-bootstrap abandons whatever is there: start from a clean
    // directory either way. The removals are made durable before the new
    // snapshot lands; a directory that held nothing needs no sync.
    let vfs = options.vfs.clone();
    vfs.create_dir_all(store_dir).map_err(StoreError::from)?;
    let stale = vfs.read_dir_names(store_dir).map_err(StoreError::from)?;
    for name in &stale {
        vfs.remove_file(&store_dir.join(name))
            .map_err(StoreError::from)?;
    }
    if !stale.is_empty() {
        vfs.sync_dir(store_dir).map_err(StoreError::from)?;
    }
    let store = Store::create_from_image_with(store_dir, options, &image)?;
    drop(image);
    write_replica_manifest_with(&vfs, store_dir, manifest)?;
    let engine = ConsensusEngine::from_export(&export)?;
    Ok(LiveEngine::from_store(store, epoch, engine))
}

impl Follower {
    /// Opens a follower: reuses the local store at `store_dir` if one
    /// exists (a restarted follower resumes from its own durable state and
    /// keeps serving even while the outbox is unreachable, with the link
    /// marked degraded), otherwise bootstraps from the shipped anchor.
    pub fn open(
        transport: Transport,
        store_dir: &Path,
        options: StoreOptions,
    ) -> Result<Follower, ReplicaError> {
        match LiveEngine::open_with(store_dir, options.clone()) {
            Ok(live) => {
                // Local durable state exists: serve it immediately. A
                // missing or unreadable record of the followed chain
                // degrades to token 0, which any fetched manifest
                // supersedes.
                let manifest = read_replica_manifest_with(&options.vfs, store_dir)
                    .ok()
                    .flatten()
                    .unwrap_or_default();
                let obs = ReplicaObs::new(live.obs().clone());
                let mut follower = Follower {
                    transport,
                    live,
                    store_dir: store_dir.to_path_buf(),
                    options,
                    manifest,
                    obs,
                };
                let adopted = fetch_manifest(&follower.transport, &follower.obs)
                    .and_then(|fetched| follower.adopt_manifest(&fetched));
                match adopted {
                    Ok(()) => follower.publish_status(ComponentHealth::Healthy),
                    Err(e) => follower.publish_status(ComponentHealth::Degraded {
                        reason: e.to_string(),
                    }),
                }
                Ok(follower)
            }
            Err(LiveError::Store(StoreError::NoSnapshot)) => {
                Follower::bootstrap_fresh(transport, store_dir, options)
            }
            Err(LiveError::Store(StoreError::Io(e))) if e.kind() == io::ErrorKind::NotFound => {
                Follower::bootstrap_fresh(transport, store_dir, options)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Opens a follower with no usable local state: the shipped anchor is
    /// the only source, so the manifest fetch must succeed.
    fn bootstrap_fresh(
        transport: Transport,
        store_dir: &Path,
        options: StoreOptions,
    ) -> Result<Follower, ReplicaError> {
        let obs = ReplicaObs::new(options.obs.clone());
        let manifest = fetch_manifest(&transport, &obs)?;
        let live = bootstrap(&transport, &manifest, store_dir, options.clone(), &obs)?;
        let follower = Follower {
            transport,
            live,
            store_dir: store_dir.to_path_buf(),
            options,
            manifest,
            obs,
        };
        follower.publish_status(ComponentHealth::Healthy);
        Ok(follower)
    }

    /// Fetches the latest manifest, then fetches and verifies every segment
    /// past the applied epoch, and only then replays the whole tail as one
    /// batch ([`LiveEngine::apply_all`]: one WAL group commit, artifacts
    /// maintained once, one publish). Returns the new applied epoch. On
    /// failure — a segment that cannot be fetched or verified, or a chain
    /// gap — nothing of the tail is applied: the served state is untouched
    /// and the replication link is marked degraded; readers keep answering
    /// from the last verified epoch.
    pub fn sync(&mut self) -> Result<u64, ReplicaError> {
        match self.sync_inner() {
            Ok(epoch) => {
                self.publish_status(ComponentHealth::Healthy);
                self.obs.synced(epoch, self.lag());
                Ok(epoch)
            }
            Err(e) => {
                self.publish_status(ComponentHealth::Degraded {
                    reason: e.to_string(),
                });
                self.obs.degraded(|| format!("sync failed: {e}"));
                Err(e)
            }
        }
    }

    fn sync_inner(&mut self) -> Result<u64, ReplicaError> {
        let manifest = fetch_manifest(&self.transport, &self.obs)?;
        self.adopt_manifest(&manifest)?;
        let applied = self.live.epoch();
        let mut deltas: Vec<TreeDelta> = Vec::new();
        for meta in manifest.segments.iter().filter(|m| m.last_epoch > applied) {
            // `decode_segment` already holds a segment's records contiguous;
            // across segments, each must continue the running epoch.
            let mut records = self
                .fetch_segment(meta)?
                .into_iter()
                .filter(|(e, _)| *e > applied)
                .peekable();
            let expected = applied + 1 + deltas.len() as u64;
            if let Some(&(found, _)) = records.peek() {
                if found != expected {
                    return Err(ReplicaError::ChainBroken { expected, found });
                }
            }
            deltas.extend(records.map(|(_, d)| d));
        }
        if !deltas.is_empty() {
            self.live.apply_all(&deltas)?;
        }
        Ok(self.live.epoch())
    }

    /// Decides whether a fetched manifest continues the followed chain,
    /// rebases it, or must be refused.
    ///
    /// * An *older* fencing token is a fenced writer's lost-race commit:
    ///   refuse it ([`ReplicaError::StaleManifest`]) — the winner's next
    ///   ship rewrites the manifest and the next sync proceeds.
    /// * An anchor past the applied epoch (rotation or promotion) means
    ///   the chain no longer reaches this replica: rebootstrap from the
    ///   anchor.
    /// * A *newer* token whose anchor is **behind** the applied epoch
    ///   means a writer forked the chain before our position; the local
    ///   suffix belongs to the old history, so splicing the new writer's
    ///   segments onto it would silently mix two histories. Rebootstrap.
    /// * Otherwise the chain continues ours: durably record it (so a
    ///   restart knows which token the local state was replayed under) and
    ///   adopt it.
    fn adopt_manifest(&mut self, manifest: &Manifest) -> Result<(), ReplicaError> {
        if manifest.fencing_token < self.manifest.fencing_token {
            return Err(ReplicaError::StaleManifest {
                followed: self.manifest.fencing_token,
                fetched: manifest.fencing_token,
            });
        }
        let applied = self.live.epoch();
        let new_writer = manifest.fencing_token != self.manifest.fencing_token;
        if manifest.anchor_epoch() > applied || (new_writer && applied > manifest.anchor_epoch()) {
            self.rebootstrap(manifest)?;
        } else if *manifest != self.manifest {
            write_replica_manifest_with(&self.options.vfs, &self.store_dir, manifest)?;
        }
        self.manifest = manifest.clone();
        Ok(())
    }

    /// Fetches one segment, quarantining and re-fetching damaged copies.
    fn fetch_segment(&self, meta: &SegmentMeta) -> Result<Vec<(u64, TreeDelta)>, ReplicaError> {
        let name = meta.file_name();
        let mut last: Option<StoreError> = None;
        for _ in 0..FETCH_ATTEMPTS {
            match self.transport.fetch(&name) {
                Ok(bytes) => match verify_segment_bytes(&bytes, meta) {
                    Ok(records) => return Ok(records),
                    // As for the anchor: a verified file in a foreign
                    // format version is not damage.
                    Err(e @ StoreError::UnsupportedVersion { .. }) => return Err(e.into()),
                    Err(e) => {
                        let _ = self.transport.quarantine(&name);
                        self.obs.quarantined(&name);
                        last = Some(e);
                    }
                },
                Err(e) => last = Some(e),
            }
        }
        Err(ReplicaError::SegmentUnavailable {
            name,
            context: last.map(|e| e.to_string()).unwrap_or_default(),
        })
    }

    /// Wipes the local store and re-bootstraps from the shipped anchor.
    fn rebootstrap(&mut self, manifest: &Manifest) -> Result<(), ReplicaError> {
        self.live = bootstrap(
            &self.transport,
            manifest,
            &self.store_dir,
            self.options.clone(),
            &self.obs,
        )?;
        Ok(())
    }

    fn publish_status(&self, link: ComponentHealth) {
        let applied = self.live.epoch();
        let lag = self.manifest.shipped_epoch().saturating_sub(applied);
        self.obs.set_lag(lag);
        self.live.set_replication(Some(ReplicationStatus {
            role: ReplicaRole::Follower,
            epoch: applied,
            lag,
            link,
        }));
    }

    /// The last epoch whose state this follower has verified and applied.
    pub fn applied_epoch(&self) -> u64 {
        self.live.epoch()
    }

    /// How many shipped epochs this follower still has to replay (as of
    /// the last fetched manifest).
    pub fn lag(&self) -> u64 {
        self.manifest
            .shipped_epoch()
            .saturating_sub(self.live.epoch())
    }

    /// A read snapshot at the applied epoch.
    pub fn snapshot(&self) -> Snapshot {
        self.live.snapshot()
    }

    /// Engine health, including replication role, applied epoch, lag, and
    /// link state.
    pub fn health(&self) -> Health {
        self.live.health()
    }

    /// Runs local crash recovery on the replica's own store (after the
    /// inbox filesystem faulted mid-replay, for example).
    pub fn try_recover(&self) -> Result<Health, ReplicaError> {
        Ok(self.live.try_recover()?)
    }

    /// Promotes this follower to the new writer.
    ///
    /// Recovery first settles the local engine on its published epoch
    /// (discarding any unacknowledged WAL suffix — the publish pointer is
    /// the commit point). The promotion then takes over the chain: it
    /// durably records a fencing token newer than any it can observe,
    /// publishes that token in the **outbox fence file** (the arbitration
    /// point ships never rewrite), ships a fresh anchor at the applied
    /// epoch, and commits a manifest carrying the new token, the new
    /// anchor, and no old segments. From the fence rename on, the old
    /// primary's next fenced operation fails with [`ReplicaError::Fenced`];
    /// at worst one in-flight commit of its clobbers the manifest, which
    /// the new primary's next ship rewrites and followers refuse as stale.
    /// Two promotions racing each other are arbitrated by a post-commit
    /// fence re-read (the loser fails with [`ReplicaError::Fenced`]);
    /// promotions that compute the *same* token remain unarbitrated, as
    /// with any file-rename-based fence.
    pub fn promote(self) -> Result<Primary, ReplicaError> {
        self.live.try_recover()?;
        let snapshot = self.live.snapshot();
        let epoch = snapshot.epoch();
        let src_vfs = self.transport.src_vfs();
        let src_dir = self.transport.src_dir().to_path_buf();
        let current = match read_manifest_with(&src_vfs, &src_dir) {
            Ok(manifest) => manifest.fencing_token,
            Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => 0,
            Err(e) => return Err(e.into()),
        };
        let outbox_token = read_fence_with(&src_vfs, &src_dir)?.unwrap_or(0);
        let token = current.max(outbox_token).max(self.manifest.fencing_token) + 1;
        let store = self.live.store().ok_or(ReplicaError::NotDurable)?;
        // Own fence first: if we crash between here and the manifest
        // commit, we hold a token newer than the manifest's — attach()
        // accepts that and rebases the chain on our own state. The reverse
        // order would fence *ourselves* out of the chain we just took
        // over.
        write_fence_with(&store.vfs(), store.dir(), token)?;
        // Then the outbox fence: from this rename on, the old primary's
        // next fence check stands it down.
        write_fence_with(&src_vfs, &src_dir, token)?;
        let entry = write_anchor_with(&src_vfs, &src_dir, epoch, &snapshot.engine().export())?;
        let manifest = Manifest {
            fencing_token: token,
            anchor: Some(entry),
            segments: Vec::new(),
        };
        write_manifest_with(&src_vfs, &src_dir, &manifest)?;
        let fence_now = read_fence_with(&src_vfs, &src_dir)?.unwrap_or(0);
        if fence_now > token {
            // A concurrent promotion claimed a newer token while we were
            // committing: stand down; its next ship rewrites the manifest.
            return Err(ReplicaError::Fenced {
                held: token,
                manifest: fence_now,
            });
        }
        write_replica_manifest_with(&store.vfs(), store.dir(), &manifest)?;
        store.set_ship_watermark(epoch);
        self.obs.promoted(token, epoch);
        if let Some((_, _, bytes)) = manifest.anchor {
            self.obs.shipped_anchor(epoch, bytes);
        }
        Ok(Primary::assume(
            self.live, src_vfs, src_dir, token, manifest,
        ))
    }
}
