//! Read replicas for consensus-pdb: WAL segment shipping, divergence
//! detection, and fenced primary failover.
//!
//! The primary's durable [`LiveEngine`](cpdb_live::LiveEngine) already
//! writes every applied [`TreeDelta`](cpdb_live::TreeDelta) to a local WAL.
//! This crate turns that log into a replication stream:
//!
//! * A [`Primary`] wraps the writer engine and **ships** its WAL as
//!   immutable, CRC-framed segment files plus a snapshot *anchor* into an
//!   outbox directory. A checksummed manifest names every shipped file,
//!   its epoch range, and its checksum; rewriting the manifest is the
//!   commit point of each ship, mirroring the store's
//!   publish-pointer-is-commit-point rule.
//! * A [`Follower`] bootstraps a read-only engine from the shipped anchor
//!   — the verified anchor bytes become its local snapshot file as they
//!   are, and it serves the export they decoded to, so the anchor is
//!   decoded once and never re-encoded — and tails the segment chain
//!   through a [`Transport`], verifying every byte of the whole tail
//!   against the manifest before replaying it as one batch. Corrupt or torn ships are quarantined and re-fetched; until
//!   every segment of the tail verifies, the follower applies none of it
//!   and keeps serving its last verified epoch.
//! * [`check_divergence`] proves (or refutes) that a follower's state is
//!   bit-identical to the primary's at the same epoch: an epoch-stamped
//!   digest of the canonical export plus conformance probes.
//! * [`Follower::promote`] turns a follower into the new writer. Promotion
//!   bumps the **fencing token** in the outbox's fence file — which ships
//!   never rewrite — before committing its manifest; a revived old primary
//!   finds a token newer than the one it holds and refuses to write with
//!   [`ReplicaError::Fenced`]. Because file renames are not
//!   compare-and-swap, a fenced writer racing the promotion can still
//!   clobber the *manifest*; every writer therefore re-checks the fence
//!   after each manifest commit (standing down with [`ReplicaError::Fenced`]
//!   if it lost), rewrites the chain from its own in-memory copy on the
//!   next ship rather than re-adopting disk contents, and followers refuse
//!   to adopt a manifest whose token is older than the chain they already
//!   follow ([`ReplicaError::StaleManifest`]). Each follower records the
//!   manifest it last adopted next to its local store, so a replica whose
//!   applied epoch is ahead of a new writer's anchor discards its
//!   dead-history suffix and rebootstraps instead of splicing chains.
//!
//! All I/O goes through the store's [`Vfs`](cpdb_store::Vfs) trait, so the
//! whole protocol — shipping, verification, quarantine, promotion — runs
//! under deterministic fault injection in the test suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod divergence;
mod follower;
mod obs;
mod primary;
mod transport;

pub use divergence::{check_divergence, epoch_digest};
pub use follower::Follower;
pub use primary::Primary;
pub use transport::Transport;

use cpdb_engine::EngineError;
use cpdb_live::LiveError;
use cpdb_store::StoreError;

/// How many times a fetch is retried (with quarantine of the damaged copy
/// in between) before the follower gives up on a file for this sync.
pub const FETCH_ATTEMPTS: u32 = 3;

/// Errors surfaced by the replication layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum ReplicaError {
    /// The underlying store failed or a shipped file failed verification.
    Store(StoreError),
    /// The wrapped live engine refused or failed an operation.
    Live(LiveError),
    /// The query engine failed while probing for divergence.
    Engine(EngineError),
    /// The live engine has no durable store attached; replication requires
    /// a WAL to ship.
    NotDurable,
    /// The manifest carries a fencing token newer than the one this
    /// primary holds: another node was promoted, and this writer must
    /// stand down.
    Fenced {
        /// The token this (old) primary durably holds.
        held: u64,
        /// The newer token found in the manifest.
        manifest: u64,
    },
    /// The fetched manifest carries a fencing token older than the chain
    /// this follower already adopted: it was written by a fenced writer
    /// that lost a promotion race, and must not be replayed.
    StaleManifest {
        /// The fencing token of the chain the follower currently follows.
        followed: u64,
        /// The older token carried by the fetched manifest.
        fetched: u64,
    },
    /// A shipped file could not be fetched and verified within
    /// [`FETCH_ATTEMPTS`]; the damaged copies were quarantined and the
    /// follower keeps serving its last verified epoch.
    SegmentUnavailable {
        /// The shipped file's name.
        name: String,
        /// The last verification or I/O failure.
        context: String,
    },
    /// The verified segment chain does not continue from the follower's
    /// applied epoch — the manifest is internally consistent but does not
    /// reach this replica's position.
    ChainBroken {
        /// The epoch the follower needed next.
        expected: u64,
        /// The first epoch the chain actually provides.
        found: u64,
    },
    /// The replica's state digest differs from the primary's at the same
    /// epoch: the replica has diverged.
    Diverged {
        /// The epoch both sides were compared at.
        epoch: u64,
        /// The primary's canonical-state digest.
        primary_digest: u32,
        /// The replica's canonical-state digest.
        replica_digest: u32,
    },
    /// A divergence check was asked to compare snapshots at different
    /// epochs; the comparison is only meaningful epoch-for-epoch.
    EpochMismatch {
        /// The primary snapshot's epoch.
        primary: u64,
        /// The replica snapshot's epoch.
        replica: u64,
    },
    /// A conformance probe answered differently on the replica than on the
    /// primary at the same epoch.
    AnswerMismatch {
        /// The epoch both sides were probed at.
        epoch: u64,
        /// The index of the failing query in the probe list.
        index: usize,
    },
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::Store(e) => write!(f, "store error: {e}"),
            ReplicaError::Live(e) => write!(f, "live engine error: {e}"),
            ReplicaError::Engine(e) => write!(f, "engine error: {e}"),
            ReplicaError::NotDurable => {
                write!(
                    f,
                    "replication requires a durable engine with a store attached"
                )
            }
            ReplicaError::Fenced { held, manifest } => write!(
                f,
                "fenced: this primary holds token {held} but the manifest carries {manifest}; \
                 another node was promoted and this writer must stand down"
            ),
            ReplicaError::StaleManifest { followed, fetched } => write!(
                f,
                "stale manifest: fetched fencing token {fetched} is older than the followed \
                 chain's token {followed}; refusing to adopt a fenced writer's manifest"
            ),
            ReplicaError::SegmentUnavailable { name, context } => write!(
                f,
                "shipped file {name} could not be fetched and verified: {context}"
            ),
            ReplicaError::ChainBroken { expected, found } => write!(
                f,
                "segment chain broken: follower needs epoch {expected} next but the chain \
                 starts at {found}"
            ),
            ReplicaError::Diverged {
                epoch,
                primary_digest,
                replica_digest,
            } => write!(
                f,
                "replica diverged at epoch {epoch}: primary digest {primary_digest:#010x}, \
                 replica digest {replica_digest:#010x}"
            ),
            ReplicaError::EpochMismatch { primary, replica } => write!(
                f,
                "divergence check requires equal epochs (primary {primary}, replica {replica})"
            ),
            ReplicaError::AnswerMismatch { epoch, index } => write!(
                f,
                "conformance probe {index} answered differently on the replica at epoch {epoch}"
            ),
        }
    }
}

impl std::error::Error for ReplicaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplicaError::Store(e) => Some(e),
            ReplicaError::Live(e) => Some(e),
            ReplicaError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for ReplicaError {
    fn from(e: StoreError) -> Self {
        ReplicaError::Store(e)
    }
}

impl From<LiveError> for ReplicaError {
    fn from(e: LiveError) -> Self {
        ReplicaError::Live(e)
    }
}

impl From<EngineError> for ReplicaError {
    fn from(e: EngineError) -> Self {
        ReplicaError::Engine(e)
    }
}
