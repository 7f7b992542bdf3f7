//! End-to-end replication protocol tests over the in-memory fault VFS:
//! ship/replay round-trips, quarantine of damaged ships, WAL retention
//! for lagging followers, anchor rotation, promotion, and fencing.

use cpdb_andxor::{AndXorTree, AndXorTreeBuilder};
use cpdb_engine::{ConsensusEngine, ConsensusEngineBuilder, Query, TopKMetric, Variant};
use cpdb_live::{ComponentHealth, LiveEngine, ReplicaRole, TreeDelta};
use cpdb_replica::{check_divergence, Follower, Primary, ReplicaError, Transport};
use cpdb_store::fault::FaultVfs;
use cpdb_store::ship::{
    anchor_file_name, read_manifest_with, write_fence_with, write_manifest_with, MANIFEST_FILE,
    REPLICA_MANIFEST_FILE,
};
use cpdb_store::store::StoreOptions;
use cpdb_store::{std_vfs, ObsVfs, RetryPolicy, StoreError, Vfs, VfsFile};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

fn bid_tree() -> AndXorTree {
    let mut b = AndXorTreeBuilder::new();
    let mut xors = Vec::new();
    for (key, alts) in [
        (1u64, vec![(95.0, 0.3), (40.0, 0.5)]),
        (2, vec![(80.0, 0.6), (55.0, 0.2)]),
        (3, vec![(70.0, 0.9)]),
        (4, vec![(60.0, 0.4), (50.0, 0.4)]),
    ] {
        let edges: Vec<_> = alts
            .iter()
            .map(|&(v, p)| (b.leaf_parts(key, v), p))
            .collect();
        xors.push(b.xor_node(edges));
    }
    let root = b.and_node(xors);
    b.build(root).unwrap()
}

fn engine() -> ConsensusEngine {
    ConsensusEngineBuilder::new(bid_tree())
        .seed(5)
        .build()
        .unwrap()
}

fn options(vfs: &FaultVfs) -> StoreOptions {
    StoreOptions {
        vfs: Arc::new(vfs.clone()),
        retry: RetryPolicy::no_delay(3),
        ..StoreOptions::default()
    }
}

fn arc(vfs: &FaultVfs) -> Arc<dyn Vfs> {
    Arc::new(vfs.clone())
}

fn topk(k: usize) -> Query {
    Query::TopK {
        k,
        metric: TopKMetric::SymmetricDifference,
        variant: Variant::Mean,
    }
}

fn probes() -> Vec<Query> {
    vec![topk(1), topk(2), topk(3)]
}

/// Always-valid write stream: leaf-value updates cycling over the leaves.
fn leaf_deltas(tree: &AndXorTree, count: usize) -> Vec<TreeDelta> {
    let leaves = tree.leaf_nodes();
    (0..count)
        .map(|i| TreeDelta::LeafValue {
            leaf: leaves[i % leaves.len()],
            value: 40.0 + (i % 53) as f64,
        })
        .collect()
}

/// A primary over `pvfs` with its store at `/p/store` and outbox at
/// `/p/outbox`.
fn primary(pvfs: &FaultVfs) -> Primary {
    let live =
        LiveEngine::new_durable_with(engine(), Path::new("/p/store"), options(pvfs)).unwrap();
    Primary::attach(live, arc(pvfs), Path::new("/p/outbox")).unwrap()
}

/// A follower over `fvfs` pulling from `/p/outbox` on `pvfs` into `inbox`,
/// with its local store at `store`.
fn follower_at(pvfs: &FaultVfs, fvfs: &FaultVfs, inbox: &str, store: &str) -> Follower {
    let transport = Transport::new(
        arc(pvfs),
        Path::new("/p/outbox"),
        arc(fvfs),
        Path::new(inbox),
    )
    .unwrap();
    Follower::open(transport, Path::new(store), options(fvfs)).unwrap()
}

/// A follower over `fvfs` pulling from `/p/outbox` on `pvfs` into
/// `/f/inbox`, with its local store at `/f/store`.
fn follower(pvfs: &FaultVfs, fvfs: &FaultVfs) -> Follower {
    follower_at(pvfs, fvfs, "/f/inbox", "/f/store")
}

#[test]
fn follower_replays_shipped_segments_bit_identically() {
    let pvfs = FaultVfs::new();
    let fvfs = FaultVfs::new();
    let primary = primary(&pvfs);
    primary.ship().unwrap(); // anchor at epoch 0

    let deltas = leaf_deltas(primary.snapshot().tree(), 6);
    for delta in &deltas[..4] {
        primary.apply(delta).unwrap();
    }
    assert_eq!(primary.ship().unwrap(), 4);

    let mut follower = follower(&pvfs, &fvfs);
    assert_eq!(follower.sync().unwrap(), 4);
    assert_eq!(follower.applied_epoch(), 4);
    assert_eq!(follower.lag(), 0);
    check_divergence(&primary.snapshot(), &follower.snapshot(), &probes()).unwrap();

    // A second round through the incremental segment path.
    for delta in &deltas[4..] {
        primary.apply(delta).unwrap();
    }
    primary.ship().unwrap();
    assert_eq!(follower.sync().unwrap(), 6);
    check_divergence(&primary.snapshot(), &follower.snapshot(), &probes()).unwrap();

    let status = follower.health().replication.unwrap();
    assert_eq!(status.role, ReplicaRole::Follower);
    assert_eq!(status.epoch, 6);
    assert_eq!(status.lag, 0);
    assert!(status.link.is_healthy());
    let pstatus = primary.health().replication.unwrap();
    assert_eq!(pstatus.role, ReplicaRole::Primary);
    assert_eq!(pstatus.epoch, 6);
}

#[test]
fn outbox_passes_the_deep_scan() {
    let pvfs = FaultVfs::new();
    let primary = primary(&pvfs);
    primary.ship().unwrap();
    let deltas = leaf_deltas(primary.snapshot().tree(), 3);
    for delta in &deltas {
        primary.apply(delta).unwrap();
    }
    primary.ship().unwrap();

    let outcome = cpdb_store::verify::verify_dir_with(&arc(&pvfs), Path::new("/p/outbox")).unwrap();
    assert!(outcome.clean(), "outbox not clean: {:?}", outcome.problems);
    let manifest = read_manifest_with(&arc(&pvfs), Path::new("/p/outbox")).unwrap();
    assert_eq!(manifest.anchor.map(|(e, _, _)| e), Some(0));
    assert_eq!(manifest.segments.len(), 1);
    assert_eq!(
        (
            manifest.segments[0].first_epoch,
            manifest.segments[0].last_epoch
        ),
        (1, 3)
    );
}

#[test]
fn corrupt_ship_is_quarantined_and_never_served() {
    let pvfs = FaultVfs::new();
    let fvfs = FaultVfs::new();
    let primary = primary(&pvfs);
    primary.ship().unwrap();
    let deltas = leaf_deltas(primary.snapshot().tree(), 4);
    for delta in &deltas[..2] {
        primary.apply(delta).unwrap();
    }
    primary.ship().unwrap();
    let mut follower = follower(&pvfs, &fvfs);
    assert_eq!(follower.sync().unwrap(), 2);
    let before = follower.snapshot().run(&topk(2)).unwrap();

    // Flip one byte in the next shipped segment at the source.
    for delta in &deltas[2..] {
        primary.apply(delta).unwrap();
    }
    primary.ship().unwrap();
    let seg_path = Path::new("/p/outbox").join(cpdb_store::ship::segment_file_name(3, 4));
    let mut bytes = pvfs.contents(&seg_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    let pv = arc(&pvfs);
    let mut file = pv.create_truncated(&seg_path).unwrap();
    file.write_all(&bytes).unwrap();
    file.sync_all().unwrap();
    drop(file);

    // Every refetch sees the damaged source: sync fails, the follower
    // keeps serving epoch 2, and the damaged copies are quarantined.
    let err = follower.sync().unwrap_err();
    assert!(
        matches!(err, ReplicaError::SegmentUnavailable { .. }),
        "{err}"
    );
    assert_eq!(follower.applied_epoch(), 2);
    assert_eq!(follower.snapshot().run(&topk(2)).unwrap(), before);
    let status = follower.health().replication.unwrap();
    assert!(matches!(status.link, ComponentHealth::Degraded { .. }));
    let inbox = arc(&fvfs).read_dir_names(Path::new("/f/inbox")).unwrap();
    assert!(
        inbox.iter().any(|n| n.ends_with(".quarantine")),
        "no quarantined copy in {inbox:?}"
    );

    // Repair the source (re-ship the same bytes): the follower recovers.
    bytes[mid] ^= 0x40;
    let mut file = pv.create_truncated(&seg_path).unwrap();
    file.write_all(&bytes).unwrap();
    file.sync_all().unwrap();
    drop(file);
    assert_eq!(follower.sync().unwrap(), 4);
    check_divergence(&primary.snapshot(), &follower.snapshot(), &probes()).unwrap();
}

/// CRC-32 (IEEE, reflected), the checksum manifest entries carry.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

#[test]
fn anchor_in_a_foreign_version_is_refused_without_quarantine() {
    for found in [1u32, 2, 3, 4] {
        let pvfs = FaultVfs::new();
        let fvfs = FaultVfs::new();
        let primary = primary(&pvfs);
        primary.ship().unwrap();

        // Restamp the shipped anchor as an earlier-version image and publish
        // a manifest entry that matches the restamped bytes, as a primary on
        // an older build would have shipped it.
        let outbox = Path::new("/p/outbox");
        let pv = arc(&pvfs);
        let mut manifest = read_manifest_with(&pv, outbox).unwrap();
        let (epoch, _, _) = manifest.anchor.unwrap();
        let anchor_path = outbox.join(cpdb_store::ship::anchor_file_name(epoch));
        let mut bytes = pvfs.contents(&anchor_path).unwrap();
        bytes[8..12].copy_from_slice(&found.to_le_bytes());
        let mut file = pv.create_truncated(&anchor_path).unwrap();
        file.write_all(&bytes).unwrap();
        file.sync_all().unwrap();
        drop(file);
        manifest.anchor = Some((epoch, crc32(&bytes), bytes.len() as u64));
        write_manifest_with(&pv, outbox, &manifest).unwrap();

        let transport = Transport::new(pv, outbox, arc(&fvfs), Path::new("/f/inbox")).unwrap();
        let err = Follower::open(transport, Path::new("/f/store"), options(&fvfs))
            .err()
            .expect("an earlier-version anchor must not bootstrap a follower");
        assert!(
            matches!(
                err,
                ReplicaError::Store(StoreError::UnsupportedVersion { found: f }) if f == found
            ),
            "{err}"
        );
        let inbox = arc(&fvfs).read_dir_names(Path::new("/f/inbox")).unwrap();
        assert!(
            !inbox.iter().any(|n| n.ends_with(".quarantine")),
            "a well-formed foreign-version anchor was quarantined: {inbox:?}"
        );
    }
}

#[test]
fn follower_keeps_serving_while_the_link_is_down() {
    let pvfs = FaultVfs::new();
    let fvfs = FaultVfs::new();
    let primary = primary(&pvfs);
    primary.ship().unwrap();
    let deltas = leaf_deltas(primary.snapshot().tree(), 2);
    for delta in &deltas {
        primary.apply(delta).unwrap();
    }
    primary.ship().unwrap();
    let mut follower = follower(&pvfs, &fvfs);
    assert_eq!(follower.sync().unwrap(), 2);
    let before = follower.snapshot().run(&topk(2)).unwrap();

    // Outbox storage goes dark: every fetch fails.
    pvfs.fail_at(pvfs.op_count(), std::io::ErrorKind::Other, true);
    assert!(follower.sync().is_err());
    assert_eq!(follower.applied_epoch(), 2);
    assert_eq!(follower.snapshot().run(&topk(2)).unwrap(), before);

    pvfs.clear_faults();
    assert_eq!(follower.sync().unwrap(), 2);
    assert!(follower.health().replication.unwrap().link.is_healthy());
}

#[test]
fn sync_applies_nothing_when_a_later_segment_is_unavailable() {
    let pvfs = FaultVfs::new();
    let fvfs = FaultVfs::new();
    let primary = primary(&pvfs);
    primary.ship().unwrap(); // anchor at 0
    let mut follower = follower(&pvfs, &fvfs);
    assert_eq!(follower.applied_epoch(), 0);
    let before = follower.snapshot().run(&topk(2)).unwrap();

    // Two segments: epochs 1..=2, then 3..=4.
    let deltas = leaf_deltas(primary.snapshot().tree(), 4);
    for batch in deltas.chunks(2) {
        for delta in batch {
            primary.apply(delta).unwrap();
        }
        primary.ship().unwrap();
    }
    let manifest = read_manifest_with(&arc(&pvfs), Path::new("/p/outbox")).unwrap();
    assert_eq!(
        manifest
            .segments
            .iter()
            .map(|s| (s.first_epoch, s.last_epoch))
            .collect::<Vec<_>>(),
        vec![(1, 2), (3, 4)]
    );

    // The second segment cannot be fetched: the first one, although it
    // verifies, must not be applied either.
    let outbox = Path::new("/p/outbox");
    let second = outbox.join(cpdb_store::ship::segment_file_name(3, 4));
    let parked = outbox.join("parked-segment");
    let pv = arc(&pvfs);
    pv.rename(&second, &parked).unwrap();
    let err = follower.sync().unwrap_err();
    assert!(
        matches!(err, ReplicaError::SegmentUnavailable { .. }),
        "{err}"
    );
    assert_eq!(follower.applied_epoch(), 0);
    assert_eq!(follower.snapshot().run(&topk(2)).unwrap(), before);
    assert!(!follower.health().replication.unwrap().link.is_healthy());

    // Once the segment is back, one sync reaches the shipped epoch.
    pv.rename(&parked, &second).unwrap();
    assert_eq!(follower.sync().unwrap(), 4);
    assert_eq!(follower.applied_epoch(), 4);
    check_divergence(&primary.snapshot(), &follower.snapshot(), &probes()).unwrap();
}

#[test]
fn watermark_retains_wal_for_a_lagging_follower() {
    let pvfs = FaultVfs::new();
    let fvfs = FaultVfs::new();
    let primary = primary(&pvfs);
    primary.ship().unwrap(); // anchor at 0; ship watermark pinned at 0
    primary.live().set_snapshot_every(2);

    // Aggressive compaction between ships: without the ship watermark the
    // store would truncate the WAL past the shipped epoch and force a
    // re-anchor instead of an incremental segment.
    let deltas = leaf_deltas(primary.snapshot().tree(), 10);
    for delta in &deltas {
        primary.apply(delta).unwrap();
        primary.live().await_compaction();
    }
    assert_eq!(primary.ship().unwrap(), 10);
    let manifest = read_manifest_with(&arc(&pvfs), Path::new("/p/outbox")).unwrap();
    assert_eq!(
        manifest
            .segments
            .iter()
            .map(|s| (s.first_epoch, s.last_epoch))
            .collect::<Vec<_>>(),
        vec![(1, 10)],
        "lagging follower's run was compacted away instead of retained"
    );

    let mut follower = follower(&pvfs, &fvfs);
    assert_eq!(follower.sync().unwrap(), 10);
    check_divergence(&primary.snapshot(), &follower.snapshot(), &probes()).unwrap();
}

#[test]
fn rotation_reanchors_followers_past_the_dropped_chain() {
    let pvfs = FaultVfs::new();
    let fvfs = FaultVfs::new();
    let primary = primary(&pvfs);
    primary.ship().unwrap();
    let deltas = leaf_deltas(primary.snapshot().tree(), 3);
    for delta in &deltas[..2] {
        primary.apply(delta).unwrap();
    }
    primary.ship().unwrap();
    let mut follower = follower(&pvfs, &fvfs);
    assert_eq!(follower.sync().unwrap(), 2);

    primary.apply(&deltas[2]).unwrap();
    assert_eq!(primary.rotate_anchor().unwrap(), 3);
    let outbox = arc(&pvfs).read_dir_names(Path::new("/p/outbox")).unwrap();
    assert!(
        !outbox.iter().any(|n| n.starts_with("segment-")),
        "rotation left old segments behind: {outbox:?}"
    );

    // The follower's position predates the rebased chain: it rebuilds
    // from the new anchor.
    assert_eq!(follower.sync().unwrap(), 3);
    check_divergence(&primary.snapshot(), &follower.snapshot(), &probes()).unwrap();
}

#[test]
fn follower_restart_resumes_from_its_local_store() {
    let pvfs = FaultVfs::new();
    let fvfs = FaultVfs::new();
    let primary = primary(&pvfs);
    primary.ship().unwrap();
    let deltas = leaf_deltas(primary.snapshot().tree(), 3);
    for delta in &deltas {
        primary.apply(delta).unwrap();
    }
    primary.ship().unwrap();
    let mut follower = follower(&pvfs, &fvfs);
    assert_eq!(follower.sync().unwrap(), 3);
    drop(follower);

    // Reopen: the local store already holds epoch 3; no re-bootstrap.
    let reopened = crate::follower(&pvfs, &fvfs);
    assert_eq!(reopened.applied_epoch(), 3);
    check_divergence(&primary.snapshot(), &reopened.snapshot(), &probes()).unwrap();
}

#[test]
fn promotion_fences_the_old_primary() {
    let pvfs = FaultVfs::new();
    let fvfs = FaultVfs::new();
    let old_primary = primary(&pvfs);
    old_primary.ship().unwrap();
    let deltas = leaf_deltas(old_primary.snapshot().tree(), 6);
    for delta in &deltas[..3] {
        old_primary.apply(delta).unwrap();
    }
    old_primary.ship().unwrap();
    let mut follower = follower(&pvfs, &fvfs);
    assert_eq!(follower.sync().unwrap(), 3);
    let reference = old_primary.snapshot();

    // The primary host dies; the follower takes over the chain.
    let new_primary = follower.promote().unwrap();
    assert_eq!(new_primary.held_token(), 2);
    assert_eq!(new_primary.epoch(), 3);
    check_divergence(&reference, &new_primary.snapshot(), &probes()).unwrap();

    // The old primary's next fenced operation is refused with the typed
    // error — even though its process is still alive.
    let err = old_primary.apply(&deltas[3]).unwrap_err();
    assert!(
        matches!(
            err,
            ReplicaError::Fenced {
                held: 1,
                manifest: 2
            }
        ),
        "{err}"
    );
    let err = old_primary.ship().unwrap_err();
    assert!(matches!(err, ReplicaError::Fenced { .. }), "{err}");

    // A revived old primary (fresh process over the same store) is refused
    // at attach.
    let live = old_primary.into_live();
    drop(live);
    let revived = LiveEngine::open_with(Path::new("/p/store"), options(&pvfs)).unwrap();
    let err = match Primary::attach(revived, arc(&pvfs), Path::new("/p/outbox")) {
        Ok(_) => panic!("revived old primary was allowed to reattach"),
        Err(e) => e,
    };
    assert!(
        matches!(
            err,
            ReplicaError::Fenced {
                held: 1,
                manifest: 2
            }
        ),
        "{err}"
    );

    // The new primary owns the chain: writes and ships proceed, and a
    // fresh follower of the rebased chain converges on it.
    for delta in &deltas[3..] {
        new_primary.apply(delta).unwrap();
    }
    new_primary.ship().unwrap();
    let gvfs = FaultVfs::new();
    let transport = Transport::new(
        arc(&pvfs),
        Path::new("/p/outbox"),
        arc(&gvfs),
        Path::new("/g/inbox"),
    )
    .unwrap();
    let mut second = Follower::open(transport, Path::new("/g/store"), options(&gvfs)).unwrap();
    assert_eq!(second.sync().unwrap(), 6);
    check_divergence(&new_primary.snapshot(), &second.snapshot(), &probes()).unwrap();
}

#[test]
fn divergence_checks_catch_drift_and_epoch_skew() {
    let pvfs = FaultVfs::new();
    let qvfs = FaultVfs::new();
    let a = LiveEngine::new_durable_with(engine(), Path::new("/a/store"), options(&pvfs)).unwrap();
    let b = LiveEngine::new_durable_with(engine(), Path::new("/b/store"), options(&qvfs)).unwrap();
    let deltas = leaf_deltas(a.snapshot().tree(), 2);

    // Same epoch, different state: the digest catches it.
    a.apply(&deltas[0]).unwrap();
    b.apply(&deltas[1]).unwrap();
    let err = check_divergence(&a.snapshot(), &b.snapshot(), &probes()).unwrap_err();
    assert!(
        matches!(err, ReplicaError::Diverged { epoch: 1, .. }),
        "{err}"
    );

    // Different epochs are refused outright.
    a.apply(&deltas[1]).unwrap();
    let err = check_divergence(&a.snapshot(), &b.snapshot(), &probes()).unwrap_err();
    assert!(
        matches!(
            err,
            ReplicaError::EpochMismatch {
                primary: 2,
                replica: 1
            }
        ),
        "{err}"
    );

    // Converged state (same deltas, either order — they touch distinct
    // leaves) passes both the digest and the probes.
    b.apply(&deltas[0]).unwrap();
    check_divergence(&a.snapshot(), &b.snapshot(), &probes()).unwrap();
}

#[test]
fn promotion_reanchors_a_follower_ahead_of_the_new_anchor() {
    let pvfs = FaultVfs::new();
    let avfs = FaultVfs::new();
    let bvfs = FaultVfs::new();
    let old_primary = primary(&pvfs);
    old_primary.ship().unwrap();
    let deltas = leaf_deltas(old_primary.snapshot().tree(), 5);

    // Follower B stops syncing at epoch 2; follower A reaches epoch 5.
    for delta in &deltas[..2] {
        old_primary.apply(delta).unwrap();
    }
    old_primary.ship().unwrap();
    let mut b = follower_at(&pvfs, &bvfs, "/b/inbox", "/b/store");
    assert_eq!(b.sync().unwrap(), 2);
    for delta in &deltas[2..] {
        old_primary.apply(delta).unwrap();
    }
    old_primary.ship().unwrap();
    let mut a = follower_at(&pvfs, &avfs, "/a/inbox", "/a/store");
    assert_eq!(a.sync().unwrap(), 5);
    drop(old_primary);

    // B takes over at epoch 2: epochs 3-5 of the old chain are dead
    // history. The new chain then grows past A's applied epoch with
    // *different* deltas.
    let new_primary = b.promote().unwrap();
    let alt: Vec<TreeDelta> = leaf_deltas(new_primary.snapshot().tree(), 4)
        .into_iter()
        .map(|d| match d {
            TreeDelta::LeafValue { leaf, value } => TreeDelta::LeafValue {
                leaf,
                value: value + 7.0,
            },
            other => other,
        })
        .collect();
    for delta in &alt {
        new_primary.apply(delta).unwrap();
    }
    new_primary.ship().unwrap();
    assert_eq!(new_primary.epoch(), 6);

    // A is at epoch 5 on the dead history; splicing the new chain's
    // epoch-6 segment on top would silently mix the two. It must instead
    // discard its suffix and rebootstrap from the new anchor.
    assert_eq!(a.sync().unwrap(), 6);
    check_divergence(&new_primary.snapshot(), &a.snapshot(), &probes()).unwrap();
}

/// Delegating VFS that simulates a promotion landing in the middle of a
/// ship: the first rename that commits a manifest first writes fencing
/// token 2 into the outbox's fence file — after the shipping primary's
/// pre-flight fence check, before its commit lands.
#[derive(Debug)]
struct RaceVfs {
    inner: Arc<dyn Vfs>,
    armed: AtomicBool,
}

impl Vfs for RaceVfs {
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.inner.open_rw(path)
    }
    fn create_truncated(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.inner.create_truncated(path)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if to.file_name().and_then(|n| n.to_str()) == Some(MANIFEST_FILE)
            && self.armed.swap(false, Ordering::SeqCst)
        {
            write_fence_with(&self.inner, Path::new("/p/outbox"), 2)
                .map_err(|e| io::Error::other(e.to_string()))?;
        }
        self.inner.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
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
fn a_promotion_racing_a_ship_fences_the_loser() {
    let pvfs = FaultVfs::new();
    let live =
        LiveEngine::new_durable_with(engine(), Path::new("/p/store"), options(&pvfs)).unwrap();
    let race = Arc::new(RaceVfs {
        inner: arc(&pvfs),
        armed: AtomicBool::new(false),
    });
    let primary =
        Primary::attach(live, race.clone() as Arc<dyn Vfs>, Path::new("/p/outbox")).unwrap();
    primary.ship().unwrap();
    let deltas = leaf_deltas(primary.snapshot().tree(), 2);
    for delta in &deltas {
        primary.apply(delta).unwrap();
    }

    // The promotion's fence lands between this ship's pre-flight check
    // and its manifest commit. The commit still clobbers the manifest
    // (renames are not compare-and-swap), but the post-commit fence
    // re-check catches it: the ship fails instead of silently keeping the
    // chain, and every later write is fenced too.
    race.armed.store(true, Ordering::SeqCst);
    let err = primary.ship().unwrap_err();
    assert!(
        matches!(
            err,
            ReplicaError::Fenced {
                held: 1,
                manifest: 2
            }
        ),
        "{err}"
    );
    let err = primary.apply(&deltas[0]).unwrap_err();
    assert!(matches!(err, ReplicaError::Fenced { .. }), "{err}");
}

#[test]
fn follower_reopens_and_serves_while_the_outbox_is_dark() {
    let pvfs = FaultVfs::new();
    let fvfs = FaultVfs::new();
    let primary = primary(&pvfs);
    primary.ship().unwrap();
    let deltas = leaf_deltas(primary.snapshot().tree(), 2);
    for delta in &deltas {
        primary.apply(delta).unwrap();
    }
    primary.ship().unwrap();
    let mut follower = follower(&pvfs, &fvfs);
    assert_eq!(follower.sync().unwrap(), 2);
    let before = follower.snapshot().run(&topk(2)).unwrap();
    drop(follower);

    // The outbox goes dark, then the follower restarts: it must come
    // back up on its intact local store and keep serving, link degraded.
    pvfs.fail_at(pvfs.op_count(), std::io::ErrorKind::Other, true);
    let transport = Transport::new(
        arc(&pvfs),
        Path::new("/p/outbox"),
        arc(&fvfs),
        Path::new("/f/inbox"),
    )
    .unwrap();
    let mut reopened = Follower::open(transport, Path::new("/f/store"), options(&fvfs)).unwrap();
    assert_eq!(reopened.applied_epoch(), 2);
    assert_eq!(reopened.snapshot().run(&topk(2)).unwrap(), before);
    let status = reopened.health().replication.unwrap();
    assert!(
        matches!(status.link, ComponentHealth::Degraded { .. }),
        "link should be degraded while the outbox is unreachable"
    );

    pvfs.clear_faults();
    assert_eq!(reopened.sync().unwrap(), 2);
    assert!(reopened.health().replication.unwrap().link.is_healthy());
    check_divergence(&primary.snapshot(), &reopened.snapshot(), &probes()).unwrap();
}

#[test]
fn follower_refuses_a_fenced_writers_manifest() {
    let pvfs = FaultVfs::new();
    let fvfs = FaultVfs::new();
    let gvfs = FaultVfs::new();
    let old_primary = primary(&pvfs);
    old_primary.ship().unwrap();
    let deltas = leaf_deltas(old_primary.snapshot().tree(), 5);
    for delta in &deltas[..3] {
        old_primary.apply(delta).unwrap();
    }
    old_primary.ship().unwrap();
    let mut follower = follower(&pvfs, &fvfs);
    assert_eq!(follower.sync().unwrap(), 3);
    let stale = read_manifest_with(&arc(&pvfs), Path::new("/p/outbox")).unwrap();
    drop(old_primary);

    // Promote a second replica, grow the new chain, and let the follower
    // adopt it.
    let mut g = follower_at(&pvfs, &gvfs, "/g/inbox", "/g/store");
    assert_eq!(g.sync().unwrap(), 3);
    let new_primary = g.promote().unwrap();
    for delta in &deltas[3..] {
        new_primary.apply(delta).unwrap();
    }
    new_primary.ship().unwrap();
    assert_eq!(follower.sync().unwrap(), 5);

    // A fenced writer's lost-race commit rewrites the manifest with the
    // old token. The follower must refuse it and keep its state.
    write_manifest_with(&arc(&pvfs), Path::new("/p/outbox"), &stale).unwrap();
    let err = follower.sync().unwrap_err();
    assert!(
        matches!(
            err,
            ReplicaError::StaleManifest {
                followed: 2,
                fetched: 1
            }
        ),
        "{err}"
    );
    assert_eq!(follower.applied_epoch(), 5);

    // The rightful writer's next ship heals the clobber without shipping
    // anything new, and the follower recovers.
    new_primary.ship().unwrap();
    assert_eq!(follower.sync().unwrap(), 5);
    check_divergence(&new_primary.snapshot(), &follower.snapshot(), &probes()).unwrap();
}

#[test]
fn replication_metrics_and_events_flow_into_the_shared_sink() {
    let pvfs = FaultVfs::new();
    let fvfs = FaultVfs::new();
    let obs = cpdb_obs::Obs::enabled();
    let live = LiveEngine::new_durable_with(
        engine(),
        Path::new("/p/store"),
        StoreOptions {
            obs: obs.clone(),
            ..options(&pvfs)
        },
    )
    .unwrap();
    let primary = Primary::attach(live, arc(&pvfs), Path::new("/p/outbox")).unwrap();
    primary.ship().unwrap(); // anchor at epoch 0
    for delta in &leaf_deltas(primary.snapshot().tree(), 3) {
        primary.apply(delta).unwrap();
    }
    primary.ship().unwrap(); // segment 1..=3

    let snap = obs.snapshot();
    assert_eq!(snap.counter("replica.ship.segments"), Some(1));
    assert!(snap.counter("replica.ship.bytes").unwrap_or(0) > 0);
    // Everything applied has shipped, so the primary's lag gauge is flat.
    assert_eq!(snap.gauge("replica.lag"), Some(0));
    let kinds: Vec<_> = obs.drain_events().into_iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&cpdb_obs::EventKind::Ship), "{kinds:?}");

    // The follower registers against its own sink (passed via store
    // options) and records the sync.
    let fobs = cpdb_obs::Obs::enabled();
    let transport = Transport::new(
        arc(&pvfs),
        Path::new("/p/outbox"),
        arc(&fvfs),
        Path::new("/f/inbox"),
    )
    .unwrap();
    let mut follower = Follower::open(
        transport,
        Path::new("/f/store"),
        StoreOptions {
            obs: fobs.clone(),
            ..options(&fvfs)
        },
    )
    .unwrap();
    assert_eq!(follower.sync().unwrap(), 3);
    let fsnap = fobs.snapshot();
    assert_eq!(fsnap.gauge("replica.lag"), Some(0));
    let fkinds: Vec<_> = fobs.drain_events().into_iter().map(|e| e.kind).collect();
    assert!(fkinds.contains(&cpdb_obs::EventKind::Sync), "{fkinds:?}");

    // Damage the next shipped segment: the quarantine shows up as a
    // counter and a flight-recorder event, and the served state survives.
    for delta in &leaf_deltas(primary.snapshot().tree(), 2) {
        primary.apply(delta).unwrap();
    }
    primary.ship().unwrap();
    let seg_path = Path::new("/p/outbox").join(cpdb_store::ship::segment_file_name(4, 5));
    let mut bytes = pvfs.contents(&seg_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    let mut file = arc(&pvfs).create_truncated(&seg_path).unwrap();
    file.write_all(&bytes).unwrap();
    file.sync_all().unwrap();
    drop(file);
    assert!(follower.sync().is_err());
    let fsnap = fobs.snapshot();
    assert!(fsnap.counter("replica.quarantines").unwrap_or(0) >= 1);
    let fkinds: Vec<_> = fobs.drain_events().into_iter().map(|e| e.kind).collect();
    assert!(
        fkinds.contains(&cpdb_obs::EventKind::Quarantine),
        "{fkinds:?}"
    );
    assert_eq!(follower.applied_epoch(), 3);
}

/// A primary whose anchor sits at epoch 3 and carries built artifacts.
fn primary_anchored_at_3(pvfs: &FaultVfs) -> Primary {
    let primary = primary(pvfs);
    primary.ship().unwrap();
    for delta in &leaf_deltas(primary.snapshot().tree(), 3) {
        primary.apply(delta).unwrap();
    }
    for q in probes() {
        primary.snapshot().run(&q).unwrap();
    }
    assert_eq!(primary.rotate_anchor().unwrap(), 3);
    primary
}

#[test]
fn cold_bootstrap_installs_the_shipped_anchor_byte_for_byte() {
    let pvfs = FaultVfs::new();
    let fvfs = FaultVfs::new();
    let primary = primary_anchored_at_3(&pvfs);
    let follower = follower(&pvfs, &fvfs);
    assert_eq!(follower.applied_epoch(), 3);
    let anchor = pvfs
        .contents(&Path::new("/p/outbox").join(anchor_file_name(3)))
        .unwrap();
    let local = Path::new("/f/store/snapshot-3.cpdb");
    assert_eq!(fvfs.durable_contents(local), Some(anchor));
    let served = follower.snapshot().export();
    assert!(
        served.context.is_some(),
        "the anchor carries the rank context"
    );
    assert!(served == primary.snapshot().export());
    check_divergence(&primary.snapshot(), &follower.snapshot(), &probes()).unwrap();
}

#[test]
fn fresh_directory_bootstrap_makes_five_fsyncs_and_two_directory_syncs() {
    let pvfs = FaultVfs::new();
    let primary = primary_anchored_at_3(&pvfs);
    let root = std::env::temp_dir().join(format!("cpdb_replica_bootstrap_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let obs = cpdb_obs::Obs::enabled();
    let counted: Arc<dyn Vfs> = Arc::new(ObsVfs::new(std_vfs(), &obs));
    let transport = Transport::new(
        arc(&pvfs),
        Path::new("/p/outbox"),
        counted.clone(),
        &root.join("inbox"),
    )
    .unwrap();
    let follower = Follower::open(
        transport,
        &root.join("store"),
        StoreOptions {
            vfs: counted,
            ..StoreOptions::default()
        },
    )
    .unwrap();
    assert_eq!(follower.applied_epoch(), 3);
    // Manifest and anchor fetches, the empty WAL, the anchor image and the
    // replica manifest each fsync once; the image and the replica manifest
    // each sync the directory after their rename. The fresh directory had
    // nothing to remove, and the empty WAL nothing to compact.
    let snap = obs.snapshot();
    assert_eq!(snap.counter("store.vfs.fsyncs"), Some(5));
    assert_eq!(snap.counter("store.vfs.dir_syncs"), Some(2));
    check_divergence(&primary.snapshot(), &follower.snapshot(), &probes()).unwrap();
    drop(follower);
    std::fs::remove_dir_all(&root).unwrap();
}

/// Delegating VFS that logs every namespace operation as `op path`.
#[derive(Debug)]
struct LoggingVfs {
    inner: Arc<dyn Vfs>,
    log: Mutex<Vec<String>>,
}

impl LoggingVfs {
    fn note(&self, op: &str, path: &Path) {
        self.log
            .lock()
            .unwrap()
            .push(format!("{op} {}", path.display()));
    }

    /// The index of the first logged entry equal to `entry`.
    fn position(&self, entry: &str) -> usize {
        let log = self.log.lock().unwrap();
        log.iter()
            .position(|e| e == entry)
            .unwrap_or_else(|| panic!("{entry:?} not in {log:?}"))
    }
}

impl Vfs for LoggingVfs {
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.inner.open_rw(path)
    }
    fn create_truncated(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.inner.create_truncated(path)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.note("rename", to);
        self.inner.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.note("remove", path);
        self.inner.remove_file(path)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.note("sync_dir", dir);
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
fn rebootstrap_removes_stale_files_durably_before_the_new_snapshot_lands() {
    let pvfs = FaultVfs::new();
    let fvfs = FaultVfs::new();
    let primary = primary(&pvfs);
    primary.ship().unwrap();
    let deltas = leaf_deltas(primary.snapshot().tree(), 3);
    for delta in &deltas[..2] {
        primary.apply(delta).unwrap();
    }
    primary.ship().unwrap();
    let logged = Arc::new(LoggingVfs {
        inner: arc(&fvfs),
        log: Mutex::new(Vec::new()),
    });
    let transport = Transport::new(
        arc(&pvfs),
        Path::new("/p/outbox"),
        arc(&fvfs),
        Path::new("/f/inbox"),
    )
    .unwrap();
    let store = Path::new("/f/store");
    let options = StoreOptions {
        vfs: logged.clone(),
        ..options(&fvfs)
    };
    let mut follower = Follower::open(transport, store, options).unwrap();
    assert_eq!(follower.sync().unwrap(), 2);

    // The anchor moves past the follower: it must rebootstrap over its
    // WAL (records 1..=2) and epoch-0 snapshot.
    primary.apply(&deltas[2]).unwrap();
    assert_eq!(primary.rotate_anchor().unwrap(), 3);
    logged.log.lock().unwrap().clear();
    assert_eq!(follower.sync().unwrap(), 3);
    let synced = logged.position("sync_dir /f/store");
    for stale in ["snapshot-0.cpdb", "wal.cpdb", REPLICA_MANIFEST_FILE] {
        let removed = logged.position(&format!("remove /f/store/{stale}"));
        assert!(removed < synced, "{stale} removed after the directory sync");
    }
    assert!(synced < logged.position("rename /f/store/snapshot-3.cpdb"));

    let mut names = fvfs.read_dir_names(store).unwrap();
    names.sort();
    assert_eq!(
        names,
        ["replica.cpdb", "snapshot-3.cpdb", "wal.cpdb"].map(String::from)
    );
    let wal = fvfs.durable_contents(&store.join("wal.cpdb")).unwrap();
    assert!(cpdb_store::wal::scan_wal_bytes(&wal).unwrap().0.is_empty());
    assert_eq!(
        fvfs.durable_contents(&store.join("snapshot-3.cpdb")),
        pvfs.contents(&Path::new("/p/outbox").join(anchor_file_name(3)))
    );
    check_divergence(&primary.snapshot(), &follower.snapshot(), &probes()).unwrap();
}
