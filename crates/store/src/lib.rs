//! # cpdb-store — snapshot persistence and WAL crash recovery
//!
//! The consensus answers of Li & Deshpande (PODS 2009) are a pure function
//! of the probabilistic and/xor tree, yet rebuilding the engine's shared
//! artifacts — the rank-PMF context at the largest `k` served, the
//! co-clustering weights — costs generating-function sweeps and `O(n²)`
//! pair evaluations on every process start. This crate makes a `cpdb_live` database **durable**
//! so restarts warm-start instead:
//!
//! * [`snapshot`] — a compact, versioned binary image of one engine epoch:
//!   the flattened tree plus every *built* artifact
//!   ([`cpdb_engine::EngineExport`]), laid out as checksummed sections
//!   behind a magic/version header and an epoch stamp, written atomically
//!   (tmp file + rename + directory fsync). A torn or bit-flipped snapshot
//!   never loads: each section carries a CRC-32, and the tree re-validates
//!   the paper's structural constraints on decode.
//! * [`wal`] — a write-ahead log of [`cpdb_andxor::TreeDelta`]s. Each record
//!   is length-prefixed, CRC-checksummed, and fsync'd *before* the epoch it
//!   produces is published, so a crash between publishes loses nothing.
//!   Replay stops at (and truncates) a torn tail record, reconstructing the
//!   exact pre-crash epoch.
//! * [`store`] — the directory layout tying both together: the latest valid
//!   snapshot plus the WAL suffix with later epochs. Writing a snapshot at
//!   epoch `E` compacts the WAL (drops records with epoch ≤ `E`) and prunes
//!   superseded snapshot files. A fresh store can instead be seeded with an
//!   already encoded image, written as it is
//!   ([`Store::create_from_image_with`]).
//!
//! `cpdb_live::LiveEngine::open` builds on these to answer bit-identically
//! to the engine that wrote the files — conformance-gated against
//! from-scratch engines on every testkit seed, including torn-tail crash
//! simulations.
//!
//! ## File formats
//!
//! Snapshot (`snapshot-<epoch>.cpdb`, version 8; see
//! [`snapshot::SNAPSHOT_VERSION`] for what changed from versions 1 to 7).
//! Only the tree section carries tuple keys: the one rank-context and the
//! co-clustering sections are bare `f64` arrays over the tree's sorted
//! keys, and the marginal section one over its sorted alternatives:
//!
//! | field | bytes | meaning |
//! |---|---|---|
//! | magic | 8 | `CPDBSNP1` |
//! | version | 4 | format version (7), little-endian `u32` |
//! | epoch | 8 | the epoch this image serves |
//! | sections | 4 | section count |
//! | per section: tag | 1 | config / tree / artifact kind |
//! | len | 8 | payload length |
//! | crc32 | 4 | CRC-32 (IEEE) of tag ‖ len ‖ payload |
//! | payload | len | section body (fixed-width little-endian; `f64` as bits) |
//!
//! WAL (`wal.cpdb`, version 1):
//!
//! | field | bytes | meaning |
//! |---|---|---|
//! | magic | 8 | `CPDBWAL1` |
//! | version | 4 | format version (1) |
//! | per record: len | 4 | payload length |
//! | crc32 | 4 | CRC-32 (IEEE) of the payload |
//! | payload | len | epoch (`u64`) + encoded delta |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod checksum;
mod codec;
pub mod fault;
mod obs;
mod retry;
pub mod ship;
pub mod snapshot;
pub mod store;
pub mod verify;
pub mod vfs;
pub mod wal;

pub use fault::FaultVfs;
pub use obs::ObsVfs;
pub use retry::RetryPolicy;
pub use ship::{Manifest, SegmentMeta};
pub use store::{Recovered, Store, StoreOptions};
pub use verify::{VerifyOutcome, VerifyReport};
pub use vfs::{std_vfs, StdVfs, Vfs, VfsFile};
pub use wal::Wal;

use std::fmt;

/// Typed failures of the persistence layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// An operating-system I/O failure.
    Io(std::io::Error),
    /// A file failed integrity or format validation (bad magic, checksum
    /// mismatch away from the tail, impossible lengths, undecodable
    /// payloads, non-contiguous epochs).
    Corrupt {
        /// What was being decoded and what went wrong.
        context: String,
    },
    /// The file was written by an unsupported format version.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// Recovery was requested from a directory holding no valid snapshot.
    NoSnapshot,
    /// A fresh store was requested in a directory that already holds one.
    AlreadyExists {
        /// The offending path.
        path: std::path::PathBuf,
    },
    /// The WAL lock was poisoned by a thread that panicked mid-write; the
    /// in-memory WAL state may be stale, so the operation was refused.
    Poisoned,
    /// A failed append could not be rolled back (the `set_len` undoing a
    /// torn write itself erred), so the on-disk tail position is unknown.
    /// The WAL refuses all further appends until it is reopened (which
    /// re-scans and truncates any torn region).
    WalUnusable {
        /// The rollback failure that stranded the log.
        context: String,
    },
    /// A compaction would have dropped WAL records that replication has
    /// not shipped yet (see [`Store::set_ship_watermark`]). Honouring the
    /// request would strand every lagging follower, so it is refused.
    RetainedForReplica {
        /// The epoch compaction was requested through.
        epoch: u64,
        /// The highest epoch shipped to replicas so far; records above it
        /// must be retained.
        watermark: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Corrupt { context } => write!(f, "corrupt store data: {context}"),
            StoreError::UnsupportedVersion { found } => {
                write!(f, "unsupported store format version {found}")
            }
            StoreError::NoSnapshot => write!(f, "no valid snapshot to recover from"),
            StoreError::AlreadyExists { path } => {
                write!(f, "store already exists at {}", path.display())
            }
            StoreError::Poisoned => write!(f, "wal lock poisoned"),
            StoreError::WalUnusable { context } => {
                write!(f, "wal unusable after failed rollback: {context}")
            }
            StoreError::RetainedForReplica { epoch, watermark } => {
                write!(
                    f,
                    "wal compaction through epoch {epoch} refused: replication has \
                     shipped only through epoch {watermark} and followers still \
                     need the records above it"
                )
            }
        }
    }
}

impl StoreError {
    /// Whether retrying the failed operation may succeed without any
    /// external intervention.
    ///
    /// Only scheduling-flavoured I/O failures qualify (`EINTR`-style
    /// interruptions, timeouts, would-block). Everything else — `ENOSPC`,
    /// failed fsyncs, corruption, version mismatches, an unusable WAL — is
    /// permanent: retrying cannot help, and durability code must degrade
    /// instead of spinning.
    pub fn is_transient(&self) -> bool {
        match self {
            StoreError::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::Interrupted
                    | std::io::ErrorKind::TimedOut
                    | std::io::ErrorKind::WouldBlock
            ),
            _ => false,
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}
