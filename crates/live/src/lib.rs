//! # cpdb-live — incremental updates with snapshot-isolated serving
//!
//! The paper motivates consensus answers for *live* probabilistic data:
//! sensor feeds whose readings drift, dedup pipelines whose match
//! probabilities are re-estimated, information extraction whose candidate
//! tuples appear and disappear. Everything below this crate treats the
//! and/xor tree as frozen — any change would mean discarding the
//! [`ConsensusEngine`] and rebuilding every generating-function artifact
//! from scratch while queries wait. This crate makes the data mutable while
//! readers keep getting answers:
//!
//! * **Mutations** are [`TreeDelta`]s (defined in `cpdb_andxor::mutate`):
//!   update an ∨-edge probability, update a leaf's score, insert/remove an
//!   alternative, add a whole tuple block. Application validates against the
//!   model constraints with typed errors and yields a *new* epoch-stamped
//!   tree — the previous epoch's tree is never touched.
//! * **Artifact maintenance** is delta-aware
//!   ([`ConsensusEngine::apply_delta`]): each cached artifact is *kept*
//!   (`Arc`-shared; its dependencies are untouched), *patched* (only the
//!   affected keys' slice is recomputed, bit-identical to a full rebuild),
//!   or *invalidated* (dropped for lazy rebuild) according to the delta's
//!   [`DeltaImpact`] dependency extract. A single-∨ probability update
//!   patches the marginal table and the co-clustering weights in `O(n)` pair
//!   evaluations and drops only the global-rank PMFs; an order-preserving
//!   value update keeps the rank context too. A batch ([`LiveEngine::apply_all`]) serves only its final epoch,
//!   so it is maintained once against the run's combined impact
//!   ([`ConsensusEngine::apply_deltas`]) and reported as one
//!   [`DeltaReport`] for the whole run.
//! * **Serving is snapshot-isolated** ([`LiveEngine`]): readers take a cheap
//!   [`Snapshot`] handle (an `Arc` onto the current epoch) and keep querying
//!   it for as long as they like — a writer swapping in the next epoch never
//!   blocks them and never changes answers under them. Writers are
//!   serialised; the publish step is a single pointer store into the shared
//!   slot, taken under a lock that is never held across artifact work, so a
//!   concurrent `snapshot()` waits at most for that store.
//!
//! ## Consistency contract
//!
//! For every supported delta kind, the next epoch's engine answers **exactly
//! like a from-scratch engine** built from the mutated tree with the same
//! knobs: kept artifacts are bit-identical because their inputs are
//! untouched, patched artifacts recompute affected entries with the very
//! same closed forms the batch builders use, and invalidated artifacts are
//! rebuilt by the ordinary lazy paths. `cpdb_testkit::check_live_updates`
//! pins this equivalence after every delta of randomised sequences.
//!
//! ```
//! use cpdb_engine::{ConsensusEngineBuilder, Query, SetMetric, TopKMetric, Variant};
//! use cpdb_live::{LiveEngine, TreeDelta};
//! # use cpdb_andxor::AndXorTreeBuilder;
//! # let mut b = AndXorTreeBuilder::new();
//! # let l1 = b.leaf_parts(1, 30.0); let x1 = b.xor_node(vec![(l1, 0.8)]);
//! # let l2 = b.leaf_parts(2, 20.0); let x2 = b.xor_node(vec![(l2, 0.4)]);
//! # let root = b.and_node(vec![x1, x2]);
//! # let tree = b.build(root).unwrap();
//!
//! let live = LiveEngine::new(ConsensusEngineBuilder::new(tree).seed(7).build().unwrap());
//! let query = Query::TopK { k: 1, metric: TopKMetric::SymmetricDifference, variant: Variant::Mean };
//!
//! // A reader pins epoch 0…
//! let before = live.snapshot();
//! let answer_before = before.run(&query).unwrap();
//!
//! // …while a writer re-weights tuple 2's alternative.
//! let leaf = before.tree().leaves_of_key(2)[0];
//! let xor = before.tree().parent_of(leaf).unwrap();
//! let outcome = live
//!     .apply(&TreeDelta::XorEdgeProbability { xor, child: leaf, probability: 0.95 })
//!     .unwrap();
//! assert_eq!(outcome.epoch, 1);
//!
//! // The pinned snapshot still serves epoch 0, new snapshots serve epoch 1.
//! assert_eq!(before.run(&query).unwrap(), answer_before);
//! assert_eq!(live.snapshot().epoch(), 1);
//! # let _ = live.snapshot().run(&Query::SetConsensus {
//! #     metric: SetMetric::SymmetricDifference, variant: Variant::Mean }).unwrap();
//! ```

//!
//! ## Durability
//!
//! An in-memory [`LiveEngine`] loses everything on process exit and pays the
//! full `O(n²)` artifact rebuild on the next start. The durable constructors
//! ([`LiveEngine::new_durable`], [`LiveEngine::open`]) put a `cpdb_store`
//! directory behind the engine: every delta is appended to a checksummed
//! write-ahead log and fsync'd *before* its epoch is published (logged =
//! committed), and snapshots of the full engine — tree plus built artifacts —
//! are written atomically in the background every
//! [`snapshot_every`](LiveEngine::set_snapshot_every) deltas (compacting the
//! log). [`LiveEngine::open`] warm-starts from the newest valid snapshot,
//! replays the WAL suffix (truncating a torn tail record), and answers
//! **bit-identically** to the engine that wrote the files — the conformance
//! suite pins this on every seed, including simulated crashes.
//!
//! ## Fault tolerance & degraded mode
//!
//! The store retries transient I/O failures itself (bounded deterministic
//! backoff, see [`cpdb_store::RetryPolicy`]); the live layer handles what
//! remains. A *permanent* durability failure — `ENOSPC`, a failed fsync, a
//! WAL that could not roll back a torn append — moves the engine into
//! **degraded mode**: a typed health state machine
//! (`Healthy → Degraded(reason) → recovered`) in which
//!
//! * **readers are untouched** — snapshots keep serving the last published
//!   epoch, whose every delta was acknowledged durable before publish;
//! * **writers are refused** — [`LiveEngine::apply`]/
//!   [`LiveEngine::apply_all`] return [`LiveError::Degraded`] without
//!   touching the disk;
//! * [`LiveEngine::health`] reports writer, background compactor, and
//!   store status in one coherent [`Health`] value;
//! * [`LiveEngine::try_recover`] re-probes the store (reopening the WAL,
//!   truncating torn tails) and resumes writes once the disk again
//!   reconstructs exactly the served epoch.
//!
//! The chaos suite in `cpdb_testkit` sweeps injected fault schedules over
//! every I/O operation of a live run and asserts the contract: no answer
//! ever differs from the pre-fault epoch's, and recovery is bit-identical
//! to a never-faulted engine.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

use cpdb_engine::{ConsensusEngine, EngineError};
use cpdb_obs::{Counter, EventKind, Gauge, Histogram, MetricsSnapshot, Obs};
use cpdb_store::snapshot::encode_snapshot;
use cpdb_store::Store;
use std::fmt;
use std::ops::Deref;
use std::path::Path;
use std::sync::{Arc, PoisonError};

use cpdb_sync::atomic::{AtomicU64, Ordering};
use cpdb_sync::thread::JoinHandle;
use cpdb_sync::{ArcCell, Mutex};

pub use cpdb_andxor::{DeltaImpact, TreeDelta};
pub use cpdb_engine::{ArtifactDecision, DeltaReport};
pub use cpdb_store::{StoreError, StoreOptions};

/// Why a durable engine stopped accepting writes. Readers are never
/// affected: the last published epoch keeps serving while writers receive
/// [`LiveError::Degraded`] carrying one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DegradedReason {
    /// A WAL append failed permanently (retries exhausted or the failure
    /// was never retryable — `ENOSPC`, a failed fsync, …). The record was
    /// rolled back; no epoch was published for it.
    WalAppend {
        /// The store failure, rendered.
        error: String,
    },
    /// A failed append could not even be rolled back: the WAL's on-disk
    /// tail position is unknown and the log refuses all writes until
    /// recovery reopens it.
    WalUnusable {
        /// The rollback failure, rendered.
        error: String,
    },
    /// A [`LiveEngine::try_recover`] probe failed: either the store could
    /// not be re-read, or what it holds no longer matches the published
    /// epoch (which would mean serving unacknowledged state).
    RecoveryFailed {
        /// What the probe found, rendered.
        error: String,
    },
}

impl fmt::Display for DegradedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradedReason::WalAppend { error } => write!(f, "wal append failed: {error}"),
            DegradedReason::WalUnusable { error } => write!(f, "wal unusable: {error}"),
            DegradedReason::RecoveryFailed { error } => write!(f, "recovery failed: {error}"),
        }
    }
}

/// Typed failures of a live engine: delta/model validation from the engine
/// layer, or durability failures from the persistence layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum LiveError {
    /// The delta failed validation or the engine rejected the operation.
    Engine(EngineError),
    /// The write-ahead log or snapshot store failed.
    Store(StoreError),
    /// The engine is serving reads from its last published epoch but
    /// refusing writes until [`LiveEngine::try_recover`] succeeds.
    Degraded(DegradedReason),
    /// An internal lock was poisoned by a panicking writer; the named
    /// structure may be stale and the operation was refused.
    Poisoned(&'static str),
}

impl fmt::Display for LiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiveError::Engine(e) => write!(f, "engine error: {e}"),
            LiveError::Store(e) => write!(f, "store error: {e}"),
            LiveError::Degraded(reason) => {
                write!(f, "engine degraded (reads still served): {reason}")
            }
            LiveError::Poisoned(what) => write!(f, "{what} lock poisoned"),
        }
    }
}

impl std::error::Error for LiveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LiveError::Engine(e) => Some(e),
            LiveError::Store(e) => Some(e),
            LiveError::Degraded(_) => None,
            LiveError::Poisoned(_) => None,
        }
    }
}

/// The status of one component in a [`Health`] report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComponentHealth {
    /// Operating normally.
    Healthy,
    /// Failed; the carried reason explains what happened.
    Degraded {
        /// What went wrong, rendered.
        reason: String,
    },
}

impl ComponentHealth {
    /// Whether this component is [`ComponentHealth::Healthy`].
    pub fn is_healthy(&self) -> bool {
        matches!(self, ComponentHealth::Healthy)
    }
}

/// Which side of a replication pair an engine serves on (see
/// [`ReplicationStatus`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaRole {
    /// The single writer: cuts WAL segments and ships them.
    Primary,
    /// A read replica: applies verified shipped segments.
    Follower,
}

/// Replication progress folded into a [`Health`] report by the
/// `cpdb_replica` layer (via [`LiveEngine::set_replication`]). Engines not
/// participating in replication report `None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicationStatus {
    /// Which side of the pair this engine is.
    pub role: ReplicaRole,
    /// Highest epoch shipped (primary) or verified-and-applied (follower).
    pub epoch: u64,
    /// How many epochs the follower trails the last manifest it fetched
    /// (always 0 on a primary).
    pub lag: u64,
    /// The replication link itself: `Degraded` after a failed ship or a
    /// quarantined fetch, until the next successful round. Readers are
    /// unaffected either way — a follower keeps serving its last verified
    /// epoch.
    pub link: ComponentHealth,
}

/// One coherent health report over a [`LiveEngine`] — writer, background
/// compactor, and store status in a single call (see
/// [`LiveEngine::health`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Health {
    /// The currently served (published) epoch.
    pub epoch: u64,
    /// Whether the engine has a durability attachment at all. In-memory
    /// engines report `false` and every component healthy.
    pub durable: bool,
    /// The write path: `Degraded` means [`LiveEngine::apply`] and
    /// [`LiveEngine::apply_all`] currently refuse with
    /// [`LiveError::Degraded`]; reads are unaffected.
    pub writer: ComponentHealth,
    /// The background snapshot compactor: `Degraded` carries the parked
    /// failure of the most recent background (or synchronous
    /// [`LiveEngine::persist_snapshot`]) snapshot write. The WAL keeps
    /// every delta regardless, so this costs rebuild speed, not data.
    pub compactor: ComponentHealth,
    /// The underlying store medium: `Degraded` when the WAL itself is
    /// unusable or a recovery probe found the disk inconsistent with the
    /// served epoch — the strongest of the three signals.
    pub store: ComponentHealth,
    /// Replication progress (role, shipped/applied epoch, lag, link
    /// health), when this engine is a replication primary or follower.
    pub replication: Option<ReplicationStatus>,
}

impl Health {
    /// Whether every component — including the replication link, when
    /// present — is healthy.
    pub fn is_healthy(&self) -> bool {
        self.writer.is_healthy()
            && self.compactor.is_healthy()
            && self.store.is_healthy()
            && self
                .replication
                .as_ref()
                .is_none_or(|r| r.link.is_healthy())
    }
}

impl From<EngineError> for LiveError {
    fn from(e: EngineError) -> Self {
        LiveError::Engine(e)
    }
}

impl From<StoreError> for LiveError {
    fn from(e: StoreError) -> Self {
        LiveError::Store(e)
    }
}

/// Deltas between background snapshots, by default.
const DEFAULT_SNAPSHOT_EVERY: u64 = 32;

/// `StoreError` is deliberately not `Clone` (it wraps `io::Error`); when a
/// failure must be both returned to the caller and parked in a health
/// slot, duplicate it preserving variant and message.
fn duplicate_store_error(e: &StoreError) -> StoreError {
    match e {
        StoreError::Io(io) => StoreError::Io(std::io::Error::new(io.kind(), io.to_string())),
        StoreError::Corrupt { context } => StoreError::Corrupt {
            context: context.clone(),
        },
        StoreError::UnsupportedVersion { found } => {
            StoreError::UnsupportedVersion { found: *found }
        }
        StoreError::NoSnapshot => StoreError::NoSnapshot,
        StoreError::AlreadyExists { path } => StoreError::AlreadyExists { path: path.clone() },
        StoreError::Poisoned => StoreError::Poisoned,
        StoreError::WalUnusable { context } => StoreError::WalUnusable {
            context: context.clone(),
        },
        StoreError::RetainedForReplica { epoch, watermark } => StoreError::RetainedForReplica {
            epoch: *epoch,
            watermark: *watermark,
        },
        other => StoreError::Corrupt {
            context: other.to_string(),
        },
    }
}

/// Pre-registered live-layer metrics: apply/publish and snapshot-write
/// latency histograms, the applied-delta counter and the served-epoch
/// gauge. Cloning shares the underlying handles; the default is a disabled
/// sink (one branch per record site, no allocation).
#[derive(Debug, Clone, Default)]
struct LiveObs {
    obs: Obs,
    /// One sample per `apply`/`apply_all` call, whatever the batch length.
    apply: Histogram,
    /// Deltas published: 1 per `apply`, N per `apply_all` of N deltas.
    deltas: Counter,
    compaction: Histogram,
    epoch: Gauge,
}

impl LiveObs {
    fn new(obs: Obs) -> Self {
        LiveObs {
            apply: obs.histogram("live.apply"),
            deltas: obs.counter("live.apply.deltas"),
            compaction: obs.histogram("live.compaction"),
            epoch: obs.gauge("live.epoch"),
            obs,
        }
    }

    /// Records an epoch publish: bumps the gauge and leaves a
    /// flight-recorder event.
    fn published(&self, epoch: u64) {
        self.epoch.set(epoch);
        self.obs
            .event_with(EventKind::EpochPublish, || format!("epoch {epoch}"));
    }

    /// Records a health-state transition into degraded mode.
    fn degraded(&self, reason: &DegradedReason) {
        self.obs
            .event_with(EventKind::Degraded, || reason.to_string());
    }
}

/// The durability attachment of a [`LiveEngine`]: the store directory, the
/// background-compaction cadence, and the running compactor (if any).
struct Durability {
    store: Arc<Store>,
    snapshot_every: AtomicU64,
    deltas_since_snapshot: AtomicU64,
    compactor: Mutex<Option<JoinHandle<()>>>,
    /// The most recent background-compaction failure, kept until read via
    /// [`LiveEngine::take_compaction_error`] or logged on drop. `Arc`d so
    /// the compactor thread can write it without borrowing the engine.
    last_compaction_error: Arc<Mutex<Option<StoreError>>>,
    /// `Some` while the write path is refusing deltas after a permanent
    /// durability failure; cleared by a successful
    /// [`LiveEngine::try_recover`]. Only mutated under the writer lock.
    degraded: Mutex<Option<DegradedReason>>,
}

impl Durability {
    fn new(store: Store) -> Self {
        Durability {
            store: Arc::new(store),
            snapshot_every: AtomicU64::new(DEFAULT_SNAPSHOT_EVERY),
            deltas_since_snapshot: AtomicU64::new(0),
            compactor: Mutex::new(None),
            last_compaction_error: Arc::new(Mutex::new(None)),
            degraded: Mutex::new(None),
        }
    }

    /// The degraded reason, if any (poison-tolerant peek).
    fn degraded_reason(&self) -> Option<DegradedReason> {
        self.degraded
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Classifies a failed append and parks the reason so later writes are
    /// refused without touching the disk. Returns the error to hand the
    /// caller.
    fn enter_degraded(&self, e: StoreError) -> LiveError {
        let reason = match &e {
            StoreError::WalUnusable { context } => DegradedReason::WalUnusable {
                error: context.clone(),
            },
            other => DegradedReason::WalAppend {
                error: other.to_string(),
            },
        };
        *self.degraded.lock().unwrap_or_else(PoisonError::into_inner) = Some(reason.clone());
        LiveError::Degraded(reason)
    }
}

impl fmt::Debug for Durability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Durability")
            .field("dir", &self.store.dir())
            .field(
                "snapshot_every",
                &self.snapshot_every.load(Ordering::Relaxed),
            )
            .finish()
    }
}

/// One epoch of the live database: an epoch counter plus the engine serving
/// that version of the tree.
#[derive(Debug)]
struct Epoch {
    epoch: u64,
    engine: ConsensusEngine,
}

/// A reader's handle onto one epoch of a [`LiveEngine`] — a cheap `Arc`
/// clone. The snapshot stays fully serviceable (and its answers stay
/// byte-for-byte stable) for as long as the handle lives, no matter how many
/// epochs writers publish in the meantime; it dereferences to the epoch's
/// [`ConsensusEngine`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    inner: Arc<Epoch>,
}

impl Snapshot {
    /// The epoch this snapshot pins (the initial engine is epoch 0).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }

    /// The engine serving this epoch.
    pub fn engine(&self) -> &ConsensusEngine {
        &self.inner.engine
    }
}

impl Deref for Snapshot {
    type Target = ConsensusEngine;

    fn deref(&self) -> &ConsensusEngine {
        &self.inner.engine
    }
}

/// The outcome of one published write — a single delta
/// ([`LiveEngine::apply`]) or a whole batch ([`LiveEngine::apply_all`]):
/// the epoch it published and the per-artifact maintenance record.
#[derive(Debug)]
pub struct AppliedDelta {
    /// The epoch the mutated engine was published as.
    pub epoch: u64,
    /// Which built artifacts were kept / patched / invalidated — for a
    /// batch, by the one maintenance round over the whole run.
    pub report: DeltaReport,
}

/// A versioned, concurrently-serving front over [`ConsensusEngine`]:
/// writers apply [`TreeDelta`]s to build the next epoch while in-flight
/// readers keep serving the previous epoch's snapshot without blocking.
///
/// * [`snapshot`](Self::snapshot) hands a reader the current epoch (an
///   `Arc` clone). Queries run against the snapshot exactly as against any
///   engine — including concurrently, the engine is `Sync`.
/// * [`apply`](Self::apply) validates and applies one delta, builds the
///   next-epoch engine via the delta-aware artifact maintenance
///   ([`ConsensusEngine::apply_delta`] — kept artifacts are `Arc`-shared,
///   patched ones recomputed selectively), and publishes it with a single
///   pointer store. Writers are serialised on an internal lock; failed
///   deltas publish nothing.
///
/// Dropping the last handle to a superseded epoch frees its artifacts (the
/// kept ones stay alive through the sharing `Arc`s of later epochs).
#[derive(Debug)]
pub struct LiveEngine {
    /// The published epoch: a swappable `Arc` slot — readers clone it,
    /// writers publish into it with a single pointer store, never across
    /// queries or artifact work.
    current: ArcCell<Epoch>,
    /// Serialises writers: the next-epoch build happens outside the
    /// `current` lock, so readers keep snapshotting while it runs.
    writer: Mutex<()>,
    /// WAL + snapshot store; `None` for a purely in-memory engine.
    durability: Option<Durability>,
    /// Replication progress published by the `cpdb_replica` layer, folded
    /// into [`Health`] reports. `None` when not replicating.
    replication: Mutex<Option<ReplicationStatus>>,
    /// Live-layer metric handles. Purely additive: records timings, gauges,
    /// and flight-recorder events, never touches answers or epochs.
    obs: LiveObs,
}

impl LiveEngine {
    /// Starts serving the given engine as epoch 0, in memory only.
    pub fn new(engine: ConsensusEngine) -> Self {
        LiveEngine {
            current: ArcCell::new(Arc::new(Epoch { epoch: 0, engine })),
            writer: Mutex::new(()),
            durability: None,
            replication: Mutex::new(None),
            obs: LiveObs::default(),
        }
    }

    /// Attaches an observability sink to the live layer: apply/publish and
    /// snapshot-write latency histograms, a served-epoch gauge, and
    /// flight-recorder events for epoch publishes, compactions, and health
    /// transitions. The sink is also rethreaded into the served engine, so
    /// one snapshot carries every layer's series; durable constructors call
    /// this with [`StoreOptions::obs`](cpdb_store::StoreOptions) already.
    /// Purely additive — answers and epochs are bit-identical with any sink
    /// attached.
    #[must_use = "with_obs returns the engine it instruments"]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = LiveObs::new(obs.clone());
        self.obs.epoch.set(self.epoch());
        if obs.is_enabled() {
            let current = self.current.load();
            let engine = current.engine.clone().with_obs(obs);
            self.current.store(Arc::new(Epoch {
                epoch: current.epoch,
                engine,
            }));
        }
        self
    }

    /// The observability sink attached via [`with_obs`](Self::with_obs)
    /// (a disabled handle when none was) — the replication layer registers
    /// its own metrics against it.
    pub fn obs(&self) -> &Obs {
        &self.obs.obs
    }

    /// Starts serving the given engine as epoch 0 with durability in `dir`:
    /// writes the epoch-0 snapshot immediately, then WAL-logs every delta
    /// before publishing its epoch.
    ///
    /// Fails with [`StoreError::AlreadyExists`] if `dir` already holds a
    /// store — use [`LiveEngine::open`] to resume one.
    pub fn new_durable(engine: ConsensusEngine, dir: &Path) -> Result<Self, LiveError> {
        LiveEngine::new_durable_with(engine, dir, StoreOptions::default())
    }

    /// [`LiveEngine::new_durable`] with an explicit store configuration
    /// (filesystem implementation and retry schedule) — how the fault-
    /// injection suites run a live engine over a
    /// [`FaultVfs`](cpdb_store::FaultVfs).
    pub fn new_durable_with(
        engine: ConsensusEngine,
        dir: &Path,
        options: StoreOptions,
    ) -> Result<Self, LiveError> {
        let image = encode_snapshot(0, &engine.export());
        let store = Store::create_from_image_with(dir, options, &image)?;
        Ok(LiveEngine::from_store(store, 0, engine))
    }

    /// Serves `engine` as `epoch` over `store`, whose newest snapshot is
    /// that epoch and whose WAL holds no record past it — a store just
    /// seeded by [`Store::create_from_image_with`], as
    /// [`new_durable_with`](Self::new_durable_with) and a replica's
    /// bootstrap make. The live layer reports to the store's
    /// observability sink.
    pub fn from_store(store: Store, epoch: u64, engine: ConsensusEngine) -> Self {
        let obs = store.obs().clone();
        LiveEngine {
            current: ArcCell::new(Arc::new(Epoch { epoch, engine })),
            writer: Mutex::new(()),
            durability: Some(Durability::new(store)),
            replication: Mutex::new(None),
            obs: LiveObs::default(),
        }
        .with_obs(obs)
    }

    /// Warm-starts from the store in `dir`: loads the newest valid snapshot
    /// (tree + built artifacts, no rebuild), replays the WAL suffix on top
    /// as one batch ([`ConsensusEngine::apply_deltas`]; a torn tail record
    /// is truncated), and serves the exact pre-crash epoch. Answers are bit-identical to the engine that wrote the store.
    pub fn open(dir: &Path) -> Result<Self, LiveError> {
        LiveEngine::open_with(dir, StoreOptions::default())
    }

    /// [`LiveEngine::open`] with an explicit store configuration.
    pub fn open_with(dir: &Path, options: StoreOptions) -> Result<Self, LiveError> {
        let (store, recovered) = Store::open_with(dir, options)?;
        let (snap_epoch, export) = recovered.snapshot.ok_or(StoreError::NoSnapshot)?;
        let mut engine = ConsensusEngine::from_export(&export)?;
        // Only the last replayed epoch is served, so the tail is maintained
        // as one batch.
        if !recovered.wal.is_empty() {
            engine = engine.apply_deltas(recovered.wal.iter().map(|(_, d)| d))?.0;
        }
        let epoch = recovered.wal.last().map_or(snap_epoch, |(e, _)| *e);
        let live = LiveEngine::from_store(store, epoch, engine);
        if let Some(d) = &live.durability {
            // The replayed records count toward the next background
            // snapshot, as if they had just been applied.
            d.deltas_since_snapshot
                .store(recovered.wal.len() as u64, Ordering::Relaxed);
        }
        Ok(live)
    }

    /// Sets how many deltas may accumulate before a background snapshot
    /// compacts the WAL (durable engines only; default 32).
    pub fn set_snapshot_every(&self, every: u64) {
        if let Some(d) = &self.durability {
            d.snapshot_every.store(every.max(1), Ordering::Relaxed);
        }
    }

    /// Synchronously snapshots the current epoch to the store, compacting
    /// the WAL. Returns the epoch persisted, or `None` for an in-memory
    /// engine.
    ///
    /// A failure is returned *and* parked in the compactor-health slot
    /// (visible via [`health`](Self::health) /
    /// [`take_compaction_error`](Self::take_compaction_error)); the write
    /// path is unaffected — the WAL still holds every delta.
    pub fn persist_snapshot(&self) -> Result<Option<u64>, LiveError> {
        let Some(d) = &self.durability else {
            return Ok(None);
        };
        let current = self.current_arc();
        let _span = self.obs.obs.span(&self.obs.compaction);
        if let Err(e) = d
            .store
            .write_snapshot(current.epoch, &current.engine.export())
        {
            self.obs.obs.event_with(EventKind::CompactionFailed, || {
                format!("epoch {}: {e}", current.epoch)
            });
            *d.last_compaction_error
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = Some(duplicate_store_error(&e));
            return Err(LiveError::Store(e));
        }
        self.obs.obs.event_with(EventKind::SnapshotWrite, || {
            format!("epoch {}", current.epoch)
        });
        d.deltas_since_snapshot.store(0, Ordering::Relaxed);
        Ok(Some(current.epoch))
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        self.current_arc().epoch
    }

    /// Pins the current epoch for a reader. O(1): an `Arc` clone under a
    /// briefly-held read lock.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            inner: self.current_arc(),
        }
    }

    fn current_arc(&self) -> Arc<Epoch> {
        self.current.load()
    }

    /// Applies one delta: validates it against the current epoch's tree,
    /// builds the next-epoch engine (kept artifacts shared, affected ones
    /// patched or dropped — see [`DeltaReport`]), WAL-logs it (durable
    /// engines fsync before the publish), and publishes it. On error nothing
    /// is published and the current epoch keeps serving.
    pub fn apply(&self, delta: &TreeDelta) -> Result<AppliedDelta, LiveError> {
        let _span = self.obs.obs.span(&self.obs.apply);
        let _writer = self
            .writer
            .lock()
            .map_err(|_| LiveError::Poisoned("live writer"))?;
        if let Some(d) = &self.durability {
            // A degraded engine refuses writes outright (reads are
            // unaffected) — no disk is touched until try_recover succeeds.
            if let Some(reason) = d.degraded_reason() {
                return Err(LiveError::Degraded(reason));
            }
        }
        let current = self.current_arc();
        let (engine, report) = current.engine.apply_delta(delta)?;
        let epoch = current.epoch + 1;
        if let Some(d) = &self.durability {
            if let Err(e) = d.store.append(epoch, delta) {
                // The store layer already retried what was transient: this
                // failure is permanent. The append was rolled back (or the
                // WAL marked unusable), so the published epoch still equals
                // the durable one — park the reason and refuse writes.
                let err = d.enter_degraded(e);
                if let LiveError::Degraded(reason) = &err {
                    self.obs.degraded(reason);
                }
                return Err(err);
            }
        }
        let next = Arc::new(Epoch { epoch, engine });
        self.current.store(next.clone());
        self.obs.published(epoch);
        self.obs.deltas.incr();
        self.after_publish(1, next);
        Ok(AppliedDelta { epoch, report })
    }

    /// Applies a sequence of deltas **atomically**: the tree takes every
    /// delta in order and the next-epoch engine is staged once, its
    /// artifacts maintained against the run's combined impact
    /// ([`ConsensusEngine::apply_deltas`], bit-identical to applying the
    /// deltas one at a time). Then the whole batch is WAL-logged under a
    /// single fsync (durable engines), one record per delta, and the final
    /// epoch `current + deltas.len()` is published with one pointer store.
    /// If *any* delta fails, nothing is published, no epoch advances, and
    /// no WAL record is written — readers never observe a partially-applied
    /// batch.
    ///
    /// The one outcome names the published epoch, and its [`DeltaReport`]
    /// covers the whole run; the intermediate epochs are never served and
    /// get no engine of their own. An empty batch publishes nothing and
    /// returns `None`. The engine's
    /// [`CacheStats`](cpdb_engine::CacheStats) `delta_*` counters therefore
    /// count one maintenance round per batch, not per delta.
    pub fn apply_all(&self, deltas: &[TreeDelta]) -> Result<Option<AppliedDelta>, LiveError> {
        let _span = self.obs.obs.span(&self.obs.apply);
        let _writer = self
            .writer
            .lock()
            .map_err(|_| LiveError::Poisoned("live writer"))?;
        if let Some(d) = &self.durability {
            if let Some(reason) = d.degraded_reason() {
                return Err(LiveError::Degraded(reason));
            }
        }
        if deltas.is_empty() {
            return Ok(None);
        }
        let base = self.current_arc();
        let (engine, report) = base.engine.apply_deltas(deltas)?;
        let count = deltas.len() as u64;
        let epoch = base.epoch + count;
        if let Some(d) = &self.durability {
            let appended = d.store.append_all(
                deltas
                    .iter()
                    .enumerate()
                    .map(|(i, delta)| (base.epoch + 1 + i as u64, delta)),
            );
            if let Err(e) = appended {
                // Group commit: either the whole batch became durable or
                // none of it did — no epoch advances, writes are refused.
                let err = d.enter_degraded(e);
                if let LiveError::Degraded(reason) = &err {
                    self.obs.degraded(reason);
                }
                return Err(err);
            }
        }
        let next = Arc::new(Epoch { epoch, engine });
        self.current.store(next.clone());
        self.obs.published(epoch);
        self.obs.deltas.add(count);
        self.after_publish(count, next);
        Ok(Some(AppliedDelta { epoch, report }))
    }

    /// Bumps the durability delta counter and, when the snapshot cadence is
    /// reached, hands the freshly-published epoch to a background thread
    /// that exports it and writes a compacting snapshot. A background
    /// failure is parked in the last-compaction-error slot — read it with
    /// [`take_compaction_error`](Self::take_compaction_error); it is also
    /// logged when the engine drops. [`persist_snapshot`](Self::persist_snapshot)
    /// is the synchronous, error-returning path.
    fn after_publish(&self, applied: u64, published: Arc<Epoch>) {
        let Some(d) = &self.durability else { return };
        let since = d
            .deltas_since_snapshot
            .fetch_add(applied, Ordering::Relaxed)
            + applied;
        if since < d.snapshot_every.load(Ordering::Relaxed) {
            return;
        }
        // Poisoning is recoverable here: the slot only ever holds a fully
        // formed Option<JoinHandle>, so a panicked writer can't have left
        // it torn.
        let mut compactor = d.compactor.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(handle) = compactor.take() {
            if !handle.is_finished() {
                // Still compacting a previous epoch: keep the counter and
                // retry after the next publish.
                *compactor = Some(handle);
                return;
            }
            let _ = handle.join();
        }
        d.deltas_since_snapshot.store(0, Ordering::Relaxed);
        let store = Arc::clone(&d.store);
        let error_slot = Arc::clone(&d.last_compaction_error);
        let obs = self.obs.clone();
        *compactor = Some(cpdb_sync::thread::spawn(move || {
            let _span = obs.obs.span(&obs.compaction);
            if let Err(e) = store.write_snapshot(published.epoch, &published.engine.export()) {
                // The failing epoch goes into the flight recorder too: a
                // post-mortem dump must show *which* compaction died, not
                // just that the parked-error slot is occupied.
                obs.obs.event_with(EventKind::CompactionFailed, || {
                    format!("epoch {}: {e}", published.epoch)
                });
                *error_slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(e);
            } else {
                obs.obs.event_with(EventKind::SnapshotWrite, || {
                    format!("epoch {}", published.epoch)
                });
            }
        }));
    }

    /// Takes (and clears) the most recent background-compaction failure.
    /// `None` means every background snapshot so far succeeded — or the
    /// engine is in-memory. The WAL keeps every delta regardless, so a
    /// failed compaction never loses data, only rebuild speed.
    pub fn take_compaction_error(&self) -> Option<StoreError> {
        let d = self.durability.as_ref()?;
        d.last_compaction_error
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }

    /// Whether a background compaction has failed since the last
    /// [`take_compaction_error`](Self::take_compaction_error) (message
    /// form, without consuming the error).
    pub fn last_compaction_error(&self) -> Option<String> {
        let d = self.durability.as_ref()?;
        d.last_compaction_error
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map(|e| e.to_string())
    }

    /// Waits for any in-flight background compaction to finish (durable
    /// engines; no-op otherwise). After this returns, a failure of that
    /// compaction is visible via
    /// [`take_compaction_error`](Self::take_compaction_error).
    pub fn await_compaction(&self) {
        let Some(d) = &self.durability else { return };
        let handle = d
            .compactor
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }

    /// One coherent health report: the served epoch plus writer, background
    /// compactor, and store status (see [`Health`]). Non-consuming — the
    /// parked compaction error, if any, stays collectable via
    /// [`take_compaction_error`](Self::take_compaction_error).
    ///
    /// The state machine: a durable engine is `Healthy` until a permanent
    /// durability failure degrades the writer (reads keep serving the last
    /// published epoch), and returns to `Healthy` when
    /// [`try_recover`](Self::try_recover) verifies the disk again matches
    /// the served epoch.
    pub fn health(&self) -> Health {
        let epoch = self.epoch();
        let replication = self.replication_status();
        let Some(d) = &self.durability else {
            return Health {
                epoch,
                durable: false,
                writer: ComponentHealth::Healthy,
                compactor: ComponentHealth::Healthy,
                store: ComponentHealth::Healthy,
                replication,
            };
        };
        let degraded = d.degraded_reason();
        let writer = match &degraded {
            Some(reason) => ComponentHealth::Degraded {
                reason: reason.to_string(),
            },
            None => ComponentHealth::Healthy,
        };
        // The store medium itself is implicated only when the WAL cannot
        // even roll back or a recovery probe contradicted the served epoch;
        // a plain failed append leaves the on-disk state consistent.
        let store = match &degraded {
            Some(
                reason @ (DegradedReason::WalUnusable { .. }
                | DegradedReason::RecoveryFailed { .. }),
            ) => ComponentHealth::Degraded {
                reason: reason.to_string(),
            },
            _ => ComponentHealth::Healthy,
        };
        let compactor = match self.last_compaction_error() {
            Some(reason) => ComponentHealth::Degraded { reason },
            None => ComponentHealth::Healthy,
        };
        Health {
            epoch,
            durable: true,
            writer,
            compactor,
            store,
            replication,
        }
    }

    /// One unified [`MetricsSnapshot`] over every layer: the current
    /// epoch's engine series (query/artifact histograms plus its
    /// [`cpdb_engine::CacheStats`] counters, folded as `engine.cache.*`),
    /// the live sink's own series, and the [`Health`] /
    /// [`ReplicationStatus`] reports folded in as gauges (`live.health.*`,
    /// `replica.*`). The dedicated accessors
    /// ([`health`](Self::health), [`replication_status`](Self::replication_status),
    /// `cache_stats` on the engine) keep working — they are the sources
    /// this snapshot folds.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let current = self.current_arc();
        // When one sink is shared across layers (the intended wiring), the
        // engine's snapshot of it already carries the live.* and store.*
        // series too.
        let mut snapshot = current.engine.metrics_snapshot();
        let health = self.health();
        snapshot.push_gauge("live.durable", u64::from(health.durable));
        snapshot.push_gauge("live.epoch", health.epoch);
        snapshot.push_gauge("live.health.overall", u64::from(health.is_healthy()));
        snapshot.push_gauge("live.health.writer", u64::from(health.writer.is_healthy()));
        snapshot.push_gauge(
            "live.health.compactor",
            u64::from(health.compactor.is_healthy()),
        );
        snapshot.push_gauge("live.health.store", u64::from(health.store.is_healthy()));
        if let Some(replication) = &health.replication {
            snapshot.push_gauge("replica.epoch", replication.epoch);
            snapshot.push_gauge("replica.lag", replication.lag);
            snapshot.push_gauge(
                "replica.link_healthy",
                u64::from(replication.link.is_healthy()),
            );
            snapshot.push_gauge(
                "replica.role_primary",
                u64::from(matches!(replication.role, ReplicaRole::Primary)),
            );
        }
        snapshot
    }

    /// Publishes replication progress into this engine's [`Health`]
    /// reports — called by the `cpdb_replica` layer after every ship/sync
    /// round; `None` detaches the engine from replication reporting.
    pub fn set_replication(&self, status: Option<ReplicationStatus>) {
        *self
            .replication
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = status;
    }

    /// The replication progress last published via
    /// [`set_replication`](Self::set_replication), if any.
    pub fn replication_status(&self) -> Option<ReplicationStatus> {
        self.replication
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The durable store behind this engine, when one is attached — the
    /// replication layer ships segments straight from it.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.durability.as_ref().map(|d| &d.store)
    }

    /// Attempts to leave degraded mode: re-runs store recovery in place
    /// (reopening the WAL, truncating any torn tail) and verifies that what
    /// the disk reconstructs is exactly the epoch readers are being served.
    /// On success the writer resumes accepting deltas and the returned
    /// [`Health`] reflects it.
    ///
    /// The verification leans on the WAL-before-publish invariant: an epoch
    /// is only ever published after its record's fsync was acknowledged, so
    /// at the moment of degradation `durable epoch == published epoch`. One
    /// ambiguity is resolved here: a failed append whose frame nonetheless
    /// reached the log (the fsync — or the rollback after it — failed)
    /// leaves a valid-looking suffix the writer never acknowledged; the
    /// publish pointer is the commit point, so recovery discards that
    /// suffix like a torn frame. Any *other* disagreement means something
    /// else happened to the directory and resuming writes would fork
    /// history, so the engine stays degraded with
    /// [`DegradedReason::RecoveryFailed`].
    ///
    /// Calling this on a healthy (or in-memory) engine is a no-op returning
    /// the current health.
    pub fn try_recover(&self) -> Result<Health, LiveError> {
        let _writer = self
            .writer
            .lock()
            .map_err(|_| LiveError::Poisoned("live writer"))?;
        let Some(d) = &self.durability else {
            return Ok(self.health());
        };
        if d.degraded_reason().is_none() {
            return Ok(self.health());
        }
        let recovered = match d.store.reprobe() {
            Ok(recovered) => recovered,
            Err(e) => {
                let reason = DegradedReason::RecoveryFailed {
                    error: e.to_string(),
                };
                *d.degraded.lock().unwrap_or_else(PoisonError::into_inner) = Some(reason.clone());
                self.obs.degraded(&reason);
                return Err(LiveError::Degraded(reason));
            }
        };
        let served = self.epoch();
        let mut durable = recovered.epoch();
        if durable > served {
            // A failed append whose frame nonetheless reached the log (the
            // fsync — or the rollback after it — failed) strands a
            // valid-looking suffix the writer never acknowledged. The
            // publish pointer is the commit point: cut the log back to it,
            // exactly like a torn frame, and re-probe.
            match d
                .store
                .discard_after(served)
                .and_then(|()| d.store.reprobe())
            {
                Ok(trimmed) => durable = trimmed.epoch(),
                Err(e) => {
                    let reason = DegradedReason::RecoveryFailed {
                        error: format!("discarding un-acknowledged wal suffix failed: {e}"),
                    };
                    *d.degraded.lock().unwrap_or_else(PoisonError::into_inner) =
                        Some(reason.clone());
                    self.obs.degraded(&reason);
                    return Err(LiveError::Degraded(reason));
                }
            }
        }
        if durable != served {
            let reason = DegradedReason::RecoveryFailed {
                error: format!(
                    "store reconstructs epoch {durable} but readers are being \
                     served epoch {served}"
                ),
            };
            *d.degraded.lock().unwrap_or_else(PoisonError::into_inner) = Some(reason.clone());
            self.obs.degraded(&reason);
            return Err(LiveError::Degraded(reason));
        }
        *d.degraded.lock().unwrap_or_else(PoisonError::into_inner) = None;
        self.obs
            .obs
            .event_with(EventKind::Recovered, || format!("epoch {served} verified"));
        Ok(self.health())
    }
}

impl Drop for LiveEngine {
    fn drop(&mut self) {
        if let Some(d) = &self.durability {
            let handle = d
                .compactor
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            if let Some(handle) = handle {
                let _ = handle.join();
            }
            // A never-collected background failure would otherwise vanish
            // with the engine; make it visible on the way out.
            if let Some(e) = d
                .last_compaction_error
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
            {
                eprintln!("cpdb_live: background snapshot compaction failed: {e}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpdb_andxor::{AndXorTree, AndXorTreeBuilder};
    use cpdb_engine::{ConsensusEngineBuilder, Query, TopKMetric, Variant};

    fn bid_tree() -> AndXorTree {
        let mut b = AndXorTreeBuilder::new();
        let mut xors = Vec::new();
        for (key, alts) in [
            (1u64, vec![(95.0, 0.3), (40.0, 0.5)]),
            (2, vec![(80.0, 0.6), (55.0, 0.2)]),
            (3, vec![(70.0, 0.9)]),
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

    fn live() -> LiveEngine {
        LiveEngine::new(
            ConsensusEngineBuilder::new(bid_tree())
                .seed(5)
                .build()
                .unwrap(),
        )
    }

    fn topk(k: usize) -> Query {
        Query::TopK {
            k,
            metric: TopKMetric::SymmetricDifference,
            variant: Variant::Mean,
        }
    }

    fn reweight(snapshot: &Snapshot, key: u64, probability: f64) -> TreeDelta {
        let leaf = snapshot.tree().leaves_of_key(key)[0];
        TreeDelta::XorEdgeProbability {
            xor: snapshot.tree().parent_of(leaf).unwrap(),
            child: leaf,
            probability,
        }
    }

    #[test]
    fn epochs_advance_and_pinned_snapshots_stay_stable() {
        let live = live();
        assert_eq!(live.epoch(), 0);
        let pinned = live.snapshot();
        let before = pinned.run(&topk(2)).unwrap();

        let outcome = live.apply(&reweight(&pinned, 2, 0.75)).unwrap();
        assert_eq!(outcome.epoch, 1);
        assert_eq!(live.epoch(), 1);

        // The pinned reader still sees epoch 0, byte for byte.
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(pinned.run(&topk(2)).unwrap(), before);

        // New snapshots see the mutated data.
        let now = live.snapshot();
        assert_eq!(now.epoch(), 1);
        let p = cpdb_model::WorldModel::alternative_probability(
            now.tree(),
            &cpdb_model::Alternative::new(2, 80.0),
        );
        assert!((p - 0.75).abs() < 1e-12);
    }

    #[test]
    fn failed_deltas_publish_nothing() {
        let live = live();
        let snap = live.snapshot();
        // 0.9 + sibling 0.5 overflows block 1's mass.
        let err = live.apply(&reweight(&snap, 1, 0.9)).unwrap_err();
        assert!(
            matches!(err, LiveError::Engine(EngineError::Model(_))),
            "{err:?}"
        );
        assert_eq!(live.epoch(), 0);
    }

    #[test]
    fn apply_all_publishes_one_epoch_per_delta() {
        let live = live();
        let snap = live.snapshot();
        let deltas = vec![reweight(&snap, 1, 0.25), reweight(&snap, 2, 0.65)];
        // One outcome for the published epoch: the epoch advances by N.
        let outcome = live.apply_all(&deltas).unwrap().unwrap();
        assert_eq!(outcome.epoch, 2);
        assert_eq!(live.epoch(), 2);
        // An empty batch publishes nothing.
        assert!(live.apply_all(&[]).unwrap().is_none());
        assert_eq!(live.epoch(), 2);
    }

    #[test]
    fn readers_never_block_across_writer_swaps() {
        let live = live();
        // Warm epoch 0 so later epochs share artifacts.
        let _ = live.snapshot().run(&topk(2)).unwrap();
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                // Hold snapshots across many swaps; answers per epoch must
                // be self-consistent (same snapshot ⇒ same answer).
                for _ in 0..20 {
                    let snap = live.snapshot();
                    let a = snap.run(&topk(2)).unwrap();
                    let b = snap.run(&topk(2)).unwrap();
                    assert_eq!(a, b, "epoch {}", snap.epoch());
                }
            });
            let writer = scope.spawn(|| {
                for i in 0..20 {
                    let p = 0.3 + (i as f64) * 0.01;
                    let snap = live.snapshot();
                    live.apply(&reweight(&snap, 2, p)).unwrap();
                }
            });
            reader.join().unwrap();
            writer.join().unwrap();
        });
        assert_eq!(live.epoch(), 20);
    }

    fn temp_store_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cpdb_live_test_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn apply_all_is_atomic_for_any_failure_position() {
        let good = |snap: &Snapshot| reweight(snap, 2, 0.65);
        // 0.9 + sibling 0.5 overflows block 1's mass: always invalid.
        let bad = |snap: &Snapshot| reweight(snap, 1, 0.9);
        for fail_at in 0..3 {
            let live = live();
            let snap = live.snapshot();
            let before = snap.run(&topk(2)).unwrap();
            let deltas: Vec<TreeDelta> = (0..3)
                .map(|i| {
                    if i == fail_at {
                        bad(&snap)
                    } else {
                        good(&snap)
                    }
                })
                .collect();
            let err = live.apply_all(&deltas).unwrap_err();
            assert!(
                matches!(err, LiveError::Engine(EngineError::Model(_))),
                "position {fail_at}: {err:?}"
            );
            // Nothing published: epoch unchanged, answers unchanged.
            assert_eq!(live.epoch(), 0, "position {fail_at}");
            assert_eq!(live.snapshot().run(&topk(2)).unwrap(), before);
        }
    }

    #[test]
    fn failed_batches_leave_no_orphan_wal_records() {
        let dir = temp_store_dir("atomic");
        let engine = ConsensusEngineBuilder::new(bid_tree())
            .seed(5)
            .build()
            .unwrap();
        {
            let live = LiveEngine::new_durable(engine, &dir).unwrap();
            let snap = live.snapshot();
            let deltas = vec![
                reweight(&snap, 2, 0.65),
                reweight(&snap, 1, 0.9), // invalid: overflows block 1
            ];
            live.apply_all(&deltas).unwrap_err();
            assert_eq!(live.epoch(), 0);
            // A later, valid batch still commits at the right epochs.
            let ok = live.apply_all(&[reweight(&snap, 2, 0.7)]).unwrap();
            assert_eq!(ok.map(|o| o.epoch), Some(1));
        }
        // Reopening proves the failed batch wrote nothing to the WAL: the
        // recovered epoch counts only the committed delta.
        let reopened = LiveEngine::open(&dir).unwrap();
        assert_eq!(reopened.epoch(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_engines_reopen_bit_identically() {
        let dir = temp_store_dir("roundtrip");
        let engine = ConsensusEngineBuilder::new(bid_tree())
            .seed(5)
            .build()
            .unwrap();
        let expected = {
            let live = LiveEngine::new_durable(engine, &dir).unwrap();
            // Warm artifacts so the mid-way snapshot carries them.
            let _ = live.snapshot().run(&topk(2)).unwrap();
            let s = live.snapshot();
            live.apply(&reweight(&s, 1, 0.25)).unwrap();
            live.persist_snapshot().unwrap();
            let s = live.snapshot();
            live.apply(&reweight(&s, 2, 0.65)).unwrap();
            live.snapshot().run(&topk(2)).unwrap()
        };
        let reopened = LiveEngine::open(&dir).unwrap();
        assert_eq!(reopened.epoch(), 2);
        assert_eq!(reopened.snapshot().run(&topk(2)).unwrap(), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_creation_writes_one_image_and_compacts_nothing() {
        let vfs = cpdb_store::FaultVfs::new();
        let dir = std::path::PathBuf::from("/mem/live");
        let obs = Obs::enabled();
        let options = StoreOptions {
            vfs: Arc::new(vfs.clone()),
            obs: obs.clone(),
            ..StoreOptions::default()
        };
        let engine = ConsensusEngineBuilder::new(bid_tree())
            .seed(5)
            .build()
            .unwrap();
        let _ = engine.run(&topk(2)).unwrap();
        let export = engine.export();
        let live = LiveEngine::new_durable_with(engine, &dir, options.clone()).unwrap();
        // The empty WAL and the epoch-0 image fsync once each, and the
        // image's rename syncs the directory; nothing is compacted.
        let snap = obs.snapshot();
        assert_eq!(snap.counter("store.vfs.fsyncs"), Some(2));
        assert_eq!(snap.counter("store.vfs.dir_syncs"), Some(1));
        assert_eq!(snap.counter("store.vfs.renames"), Some(1));
        drop(live);
        vfs.crash();
        let reopened = LiveEngine::open_with(&dir, options).unwrap();
        assert_eq!(reopened.epoch(), 0);
        assert!(reopened.snapshot().export() == export);
    }

    #[test]
    fn opening_an_empty_directory_reports_no_snapshot() {
        let dir = temp_store_dir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            LiveEngine::open(&dir),
            Err(LiveError::Store(StoreError::NoSnapshot))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn background_compaction_truncates_the_wal() {
        let dir = temp_store_dir("compaction");
        let engine = ConsensusEngineBuilder::new(bid_tree())
            .seed(5)
            .build()
            .unwrap();
        {
            let live = LiveEngine::new_durable(engine, &dir).unwrap();
            live.set_snapshot_every(2);
            for i in 0..4 {
                let p = 0.3 + (i as f64) * 0.05;
                let s = live.snapshot();
                live.apply(&reweight(&s, 2, p)).unwrap();
            }
            // Drop joins the background compactor.
        }
        let reopened = LiveEngine::open(&dir).unwrap();
        assert_eq!(reopened.epoch(), 4);
        // At least one background snapshot beyond epoch 0 landed.
        let snap_files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.unwrap().file_name().into_string().ok())
            .filter(|n| n.starts_with("snapshot-") && *n != "snapshot-0.cpdb")
            .collect();
        assert!(!snap_files.is_empty(), "{snap_files:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn background_compaction_failures_surface_instead_of_vanishing() {
        let dir = temp_store_dir("compaction_error");
        let engine = ConsensusEngineBuilder::new(bid_tree())
            .seed(5)
            .build()
            .unwrap();
        let live = LiveEngine::new_durable(engine, &dir).unwrap();
        live.set_snapshot_every(1);
        assert!(live.last_compaction_error().is_none());

        // Pull the directory out from under the background compactor: the
        // WAL's already-open descriptor keeps appends working, but the
        // snapshot rewrite needs to create a file in the (now gone)
        // directory and must fail.
        std::fs::remove_dir_all(&dir).unwrap();
        let s = live.snapshot();
        live.apply(&reweight(&s, 2, 0.7)).unwrap();
        live.await_compaction();

        // Regression: this failure used to be dropped on the floor. It must
        // be visible (peek), collectable (take), and cleared by the take.
        assert!(
            live.last_compaction_error().is_some(),
            "background compaction failure was swallowed"
        );
        let err = live.take_compaction_error();
        assert!(matches!(err, Some(StoreError::Io(_))), "{err:?}");
        assert!(live.take_compaction_error().is_none(), "error not cleared");
        assert_eq!(live.epoch(), 1, "failed compaction must not block serving");
    }

    #[test]
    fn compaction_failures_land_in_the_flight_recorder_with_their_epoch() {
        let dir = temp_store_dir("compaction_event");
        let engine = ConsensusEngineBuilder::new(bid_tree())
            .seed(5)
            .build()
            .unwrap();
        let live = LiveEngine::new_durable(engine, &dir)
            .unwrap()
            .with_obs(Obs::enabled());
        live.set_snapshot_every(1);

        // Pull the directory out from under the background compactor (the
        // WAL's open descriptor keeps appends working) and force one
        // compaction to fail.
        std::fs::remove_dir_all(&dir).unwrap();
        let s = live.snapshot();
        live.apply(&reweight(&s, 2, 0.7)).unwrap();
        live.await_compaction();

        // Regression: the failure used to be visible only in the parked
        // error slot — the flight recorder showed a publish and then
        // nothing. The post-mortem event must name the failing epoch.
        let events = live.obs().drain_events();
        let failed: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::CompactionFailed)
            .collect();
        assert_eq!(failed.len(), 1, "{events:?}");
        assert!(failed[0].detail.contains("epoch 1"), "{:?}", failed[0]);
        assert!(
            events.iter().any(|e| e.kind == EventKind::EpochPublish),
            "publishes record events too: {events:?}"
        );
        // The parked-slot accessors keep working alongside the events.
        assert!(live.take_compaction_error().is_some());
    }

    #[test]
    fn metrics_snapshot_folds_health_and_epoch_gauges() {
        let live = live().with_obs(Obs::enabled());
        let s = live.snapshot();
        live.apply(&reweight(&s, 2, 0.75)).unwrap();
        let snapshot = live.metrics_snapshot();
        assert_eq!(snapshot.gauge("live.epoch"), Some(1));
        assert_eq!(snapshot.gauge("live.durable"), Some(0));
        assert_eq!(snapshot.gauge("live.health.overall"), Some(1));
        assert!(
            snapshot.gauge("replica.lag").is_none(),
            "no replication attached"
        );
    }

    fn fault_live(vfs: &cpdb_store::FaultVfs, dir: &std::path::Path) -> LiveEngine {
        let engine = ConsensusEngineBuilder::new(bid_tree())
            .seed(5)
            .build()
            .unwrap();
        LiveEngine::new_durable_with(
            engine,
            dir,
            StoreOptions {
                vfs: Arc::new(vfs.clone()),
                retry: cpdb_store::RetryPolicy::no_delay(3),
                ..StoreOptions::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn permanent_append_failure_degrades_writes_but_not_reads() {
        let vfs = cpdb_store::FaultVfs::new();
        let dir = std::path::PathBuf::from("/mem/live");
        let live = fault_live(&vfs, &dir);
        let snap = live.snapshot();
        let before = snap.run(&topk(2)).unwrap();
        live.apply(&reweight(&snap, 2, 0.7)).unwrap();
        assert!(live.health().is_healthy());

        // Disk full on the next append: the writer degrades...
        vfs.fail_at(vfs.op_count(), std::io::ErrorKind::StorageFull, false);
        let s = live.snapshot();
        let err = live.apply(&reweight(&s, 2, 0.75)).unwrap_err();
        assert!(matches!(
            err,
            LiveError::Degraded(DegradedReason::WalAppend { .. })
        ));
        // ...readers keep serving the last published epoch...
        assert_eq!(live.epoch(), 1);
        let pinned = live.snapshot();
        assert_eq!(pinned.epoch(), 1);
        assert_eq!(snap.run(&topk(2)).unwrap(), before);
        // ...further writes are refused without touching the disk...
        let ops = vfs.op_count();
        assert!(matches!(
            live.apply(&reweight(&s, 2, 0.75)),
            Err(LiveError::Degraded(_))
        ));
        assert!(matches!(
            live.apply_all(&[reweight(&s, 2, 0.75)]),
            Err(LiveError::Degraded(_))
        ));
        assert_eq!(vfs.op_count(), ops, "degraded writes must not touch disk");
        // ...and health reports it coherently.
        let health = live.health();
        assert!(!health.is_healthy());
        assert!(!health.writer.is_healthy());
        assert!(
            health.store.is_healthy(),
            "a rolled-back append leaves the medium consistent"
        );

        // Space freed: recovery re-probes, verifies the epoch, resumes.
        vfs.clear_faults();
        let health = live.try_recover().unwrap();
        assert!(health.is_healthy(), "{health:?}");
        let s = live.snapshot();
        let outcome = live.apply(&reweight(&s, 2, 0.75)).unwrap();
        assert_eq!(outcome.epoch, 2);
    }

    #[test]
    fn wal_unusable_failure_reports_store_degraded_and_recovers() {
        let vfs = cpdb_store::FaultVfs::new();
        let dir = std::path::PathBuf::from("/mem/live");
        let live = fault_live(&vfs, &dir);
        let snap = live.snapshot();
        live.apply(&reweight(&snap, 2, 0.7)).unwrap();

        // Persistent outage: the append fails AND its rollback fails.
        vfs.fail_at(vfs.op_count(), std::io::ErrorKind::Other, true);
        let s = live.snapshot();
        let err = live.apply(&reweight(&s, 2, 0.75)).unwrap_err();
        assert!(matches!(
            err,
            LiveError::Degraded(DegradedReason::WalUnusable { .. })
        ));
        let health = live.health();
        assert!(!health.writer.is_healthy());
        assert!(
            !health.store.is_healthy(),
            "an unusable wal implicates the store medium: {health:?}"
        );

        // While the outage persists, recovery itself fails and the engine
        // stays degraded.
        assert!(matches!(
            live.try_recover(),
            Err(LiveError::Degraded(DegradedReason::RecoveryFailed { .. }))
        ));
        assert!(!live.health().is_healthy());

        // Outage over: the reprobe reopens the WAL (truncating any torn
        // frame) and writes resume at the served epoch.
        vfs.clear_faults();
        let health = live.try_recover().unwrap();
        assert!(health.is_healthy(), "{health:?}");
        let s = live.snapshot();
        assert_eq!(live.apply(&reweight(&s, 2, 0.75)).unwrap().epoch, 2);
    }

    #[test]
    fn health_folds_compaction_errors_in_one_call() {
        let dir = temp_store_dir("health_compaction");
        let engine = ConsensusEngineBuilder::new(bid_tree())
            .seed(5)
            .build()
            .unwrap();
        let live = LiveEngine::new_durable(engine, &dir).unwrap();
        assert!(live.health().is_healthy());

        // Make the synchronous snapshot path fail (directory gone): the
        // compactor component degrades, the writer stays healthy.
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(live.persist_snapshot().is_err());
        let health = live.health();
        assert!(!health.is_healthy());
        assert!(health.writer.is_healthy(), "{health:?}");
        assert!(!health.compactor.is_healthy(), "{health:?}");
        // health() peeks without consuming: the error is still collectable,
        // and collecting it returns the compactor to healthy.
        assert!(!live.health().compactor.is_healthy());
        assert!(live.take_compaction_error().is_some());
        assert!(live.health().is_healthy());
    }

    #[test]
    fn in_memory_engines_are_always_healthy() {
        let live = live();
        let health = live.health();
        assert!(health.is_healthy());
        assert!(!health.durable);
        assert_eq!(health.epoch, 0);
        // try_recover on a healthy in-memory engine is a no-op.
        assert!(live.try_recover().unwrap().is_healthy());
    }

    #[test]
    fn next_epochs_start_warm_through_kept_artifacts() {
        let live = live();
        let kendall = Query::TopK {
            k: 2,
            metric: TopKMetric::Kendall,
            variant: Variant::Mean,
        };
        let snap0 = live.snapshot();
        let _ = snap0.run(&kendall).unwrap();
        // Clustering builds the co-clustering weights, which a write patches.
        let _ = snap0.run(&Query::Clustering { restarts: 2 }).unwrap();
        let context_builds = snap0.engine().cache_stats().rank_context_builds;
        assert!(context_builds >= 1);
        // 80 → 81 keeps key 2's leaf between 95 and 70: the score order holds.
        let leaf = snap0.tree().leaves_of_key(2)[0];
        live.apply(&TreeDelta::LeafValue { leaf, value: 81.0 })
            .unwrap();
        let snap1 = live.snapshot();
        let _ = snap1.run(&kendall).unwrap();
        let stats = snap1.engine().cache_stats();
        // The value delta kept the rank context: epoch 1 never rebuilt it.
        assert_eq!(stats.rank_context_builds, context_builds, "{stats:?}");
        assert!(stats.delta_kept >= 1, "{stats:?}");
        assert!(stats.delta_patched >= 1, "{stats:?}");
    }
}
