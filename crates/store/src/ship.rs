//! Shipped-segment and manifest formats for read replicas.
//!
//! Replication ships three kinds of immutable files from a primary's
//! *outbox* directory to follower *inboxes*, all written atomically on the
//! primary side (tmp file + fsync + rename + directory fsync) and verified
//! byte-for-byte on the follower side before a single record is applied:
//!
//! * **Segments** (`segment-<first>-<last>.cpdb`) — a contiguous run of
//!   WAL records cut from the primary's log. Same per-record framing as
//!   the WAL (`len u32 · crc32 u32 · payload`), behind a header naming the
//!   exact epoch range, so a torn or bit-flipped ship is always detected:
//!   unlike the WAL, a segment is complete by construction and **any**
//!   framing damage is hard [`StoreError::Corrupt`], never a tolerated
//!   tail.
//! * **Anchors** (`anchor-<epoch>.cpdb`) — a full snapshot image
//!   ([`crate::snapshot::encode_snapshot`]) a follower bootstraps from.
//! * **The manifest** (`manifest.cpdb`) — the root of trust: the fencing
//!   token, the current anchor, and per-segment checksums + lengths. A
//!   ship is committed only when the manifest naming it lands; followers
//!   verify every fetched file against the manifest entry before use.
//!
//! The **fencing token** implements single-writer failover. The
//! authoritative copy lives in a fence file (`fence.cpdb`) in the
//! *outbox*: promotion bumps it there before committing its manifest, and
//! shipping never rewrites it — so a fenced writer racing a promotion can
//! clobber the manifest (file renames are not compare-and-swap) but never
//! the token, and re-checking the fence after every manifest commit
//! bounds the race to one superseded (and later rewritten) manifest. Each
//! primary also durably remembers the token it holds in a fence file in
//! its own store directory, and the manifest carries the committing
//! writer's token so followers can tell a new writer's chain from the old
//! one. A revived old primary sees a fence token above its own and must
//! refuse writes. Followers record the manifest they last adopted in
//! their own store directory ([`REPLICA_MANIFEST_FILE`]) so a restarted
//! follower knows which writer's chain its local state belongs to.
//!
//! [`export_digest`] is the divergence probe: a checksum over the
//! *canonical* state of an epoch (epoch stamp + engine configuration +
//! tree, `f64`s as bits). It deliberately excludes incidentally built
//! artifacts — two engines at the same epoch may have served different
//! query mixes and hold different caches, yet must agree on this digest;
//! the conformance probes then cover the artifact layer, which is
//! maintained bit-identically by construction.

use crate::checksum::crc32;
use crate::codec::{
    decode_delta, encode_config, encode_delta, encode_tree, le_u32, ByteReader, ByteWriter,
};
use crate::vfs::{write_atomic, Vfs};
use crate::StoreError;
use cpdb_andxor::TreeDelta;
use cpdb_engine::EngineExport;
use std::path::Path;
use std::sync::Arc;

/// File-name prefix of shipped WAL segments.
pub const SEGMENT_PREFIX: &str = "segment-";
/// File-name prefix of shipped snapshot anchors.
pub const ANCHOR_PREFIX: &str = "anchor-";
/// File-name suffix shared by every shipped file.
pub const SHIPPED_SUFFIX: &str = ".cpdb";
/// The manifest file name inside an outbox or inbox directory.
pub const MANIFEST_FILE: &str = "manifest.cpdb";
/// The fencing-token file name. In an **outbox** it is the arbitration
/// point of the chain: only promotions (and the initial claim) write it,
/// shipping never does. In a primary's **store directory** it records the
/// token that node durably holds.
pub const FENCE_FILE: &str = "fence.cpdb";
/// A follower's durable record (in its own store directory) of the
/// manifest it last adopted — the chain its local state was replayed
/// from. Same image format as [`MANIFEST_FILE`], different name so store
/// scans do not cross-check it against files that live in the outbox.
pub const REPLICA_MANIFEST_FILE: &str = "replica.cpdb";
/// Suffix a follower renames a corrupt shipped file to before re-fetching.
pub const QUARANTINE_SUFFIX: &str = ".quarantine";

const SEGMENT_MAGIC: &[u8; 8] = b"CPDBSEG1";
const MANIFEST_MAGIC: &[u8; 8] = b"CPDBMAN1";
const FENCE_MAGIC: &[u8; 8] = b"CPDBFEN1";
/// Current shipped-file format version (segments, manifest, fence).
pub const SHIP_VERSION: u32 = 1;
/// magic · version · first_epoch · last_epoch
const SEGMENT_HEADER_LEN: usize = 8 + 4 + 8 + 8;
/// len · crc32, as in the WAL.
const RECORD_HEADER_LEN: usize = 4 + 4;
/// magic · version then one framed body record.
const FRAMED_HEADER_LEN: usize = 8 + 4;

/// Manifest metadata for one shipped segment: its epoch range plus the
/// checksum and length of the **whole file** as shipped, so a follower can
/// verify a fetched copy before decoding a single record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// First epoch in the segment.
    pub first_epoch: u64,
    /// Last epoch in the segment (inclusive).
    pub last_epoch: u64,
    /// CRC-32 (IEEE) of the entire segment file.
    pub crc: u32,
    /// Length of the segment file in bytes.
    pub len: u64,
}

impl SegmentMeta {
    /// The shipped file's name, `segment-<first>-<last>.cpdb`.
    pub fn file_name(&self) -> String {
        segment_file_name(self.first_epoch, self.last_epoch)
    }
}

/// The replication manifest: the commit point of every ship. A segment or
/// anchor file is only *shipped* once a manifest naming it (with checksum
/// and length) has landed atomically in the outbox.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// The fencing token of the writer that owns this replication chain.
    /// Promotion bumps it; a primary holding a smaller token is fenced and
    /// must refuse writes.
    pub fencing_token: u64,
    /// The snapshot anchor followers bootstrap from: `(epoch, crc, len)`
    /// of `anchor-<epoch>.cpdb`. `None` until the first anchor ships.
    pub anchor: Option<(u64, u32, u64)>,
    /// Shipped segments in ascending, contiguous epoch order starting at
    /// `anchor_epoch + 1`.
    pub segments: Vec<SegmentMeta>,
}

impl Manifest {
    /// The highest epoch reachable from this manifest: the last segment's
    /// end, else the anchor epoch, else 0.
    pub fn shipped_epoch(&self) -> u64 {
        self.segments
            .last()
            .map(|s| s.last_epoch)
            .or(self.anchor.map(|(e, _, _)| e))
            .unwrap_or(0)
    }

    /// The anchor epoch, or 0 when no anchor has shipped yet.
    pub fn anchor_epoch(&self) -> u64 {
        self.anchor.map(|(e, _, _)| e).unwrap_or(0)
    }

    /// Validates the chain: segments must be non-empty ranges, ascending,
    /// and contiguous from the epoch after the anchor.
    pub fn validate(&self) -> Result<(), StoreError> {
        let mut expected = self.anchor_epoch() + 1;
        for seg in &self.segments {
            if seg.first_epoch > seg.last_epoch {
                return Err(StoreError::Corrupt {
                    context: format!(
                        "manifest segment range {}-{} is inverted",
                        seg.first_epoch, seg.last_epoch
                    ),
                });
            }
            if seg.first_epoch != expected {
                return Err(StoreError::Corrupt {
                    context: format!(
                        "manifest segment chain broken: expected epoch {expected}, \
                         found segment starting at {}",
                        seg.first_epoch
                    ),
                });
            }
            expected = seg.last_epoch + 1;
        }
        Ok(())
    }
}

/// `segment-<first>-<last>.cpdb`.
pub fn segment_file_name(first_epoch: u64, last_epoch: u64) -> String {
    format!("{SEGMENT_PREFIX}{first_epoch}-{last_epoch}{SHIPPED_SUFFIX}")
}

/// `anchor-<epoch>.cpdb`.
pub fn anchor_file_name(epoch: u64) -> String {
    format!("{ANCHOR_PREFIX}{epoch}{SHIPPED_SUFFIX}")
}

/// Parses `segment-<first>-<last>.cpdb` back into its epoch range.
pub fn parse_segment_file_name(name: &str) -> Option<(u64, u64)> {
    let stem = name
        .strip_prefix(SEGMENT_PREFIX)?
        .strip_suffix(SHIPPED_SUFFIX)?;
    let (first, last) = stem.split_once('-')?;
    Some((first.parse().ok()?, last.parse().ok()?))
}

/// Parses `anchor-<epoch>.cpdb` back into its epoch.
pub fn parse_anchor_file_name(name: &str) -> Option<u64> {
    name.strip_prefix(ANCHOR_PREFIX)?
        .strip_suffix(SHIPPED_SUFFIX)?
        .parse()
        .ok()
}

/// Encodes a contiguous run of WAL records into one immutable segment
/// image. Refuses empty or non-contiguous runs — a segment's header names
/// an exact epoch range and decode re-verifies it.
pub fn encode_segment(records: &[(u64, TreeDelta)]) -> Result<Vec<u8>, StoreError> {
    let (Some((first, _)), Some((last, _))) = (records.first(), records.last()) else {
        return Err(StoreError::Corrupt {
            context: "refusing to encode an empty segment".to_string(),
        });
    };
    let mut out = Vec::new();
    out.extend_from_slice(SEGMENT_MAGIC);
    out.extend_from_slice(&SHIP_VERSION.to_le_bytes());
    out.extend_from_slice(&first.to_le_bytes());
    out.extend_from_slice(&last.to_le_bytes());
    for (offset, (epoch, delta)) in records.iter().enumerate() {
        let expected = first + offset as u64;
        if *epoch != expected {
            return Err(StoreError::Corrupt {
                context: format!(
                    "refusing to encode a non-contiguous segment: expected epoch \
                     {expected}, got {epoch}"
                ),
            });
        }
        let mut w = ByteWriter::new();
        w.put_u64(*epoch);
        encode_delta(&mut w, &delta.to_raw());
        let payload = w.into_bytes();
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    Ok(out)
}

/// Decodes and fully verifies one segment image. Unlike the WAL scanner,
/// **any** framing damage — short header, torn record, checksum mismatch,
/// an epoch outside the header's range, trailing bytes — is hard
/// [`StoreError::Corrupt`]: shipped segments are immutable and complete,
/// so damage means the ship (or the disk) corrupted them.
pub fn decode_segment(bytes: &[u8]) -> Result<Vec<(u64, TreeDelta)>, StoreError> {
    if bytes.len() < SEGMENT_HEADER_LEN {
        return Err(StoreError::Corrupt {
            context: "segment shorter than its header".to_string(),
        });
    }
    if &bytes[..8] != SEGMENT_MAGIC {
        return Err(StoreError::Corrupt {
            context: "bad segment magic".to_string(),
        });
    }
    let version = le_u32(&bytes[8..12]);
    if version != SHIP_VERSION {
        return Err(StoreError::UnsupportedVersion { found: version });
    }
    let first = u64::from_le_bytes([
        bytes[12], bytes[13], bytes[14], bytes[15], bytes[16], bytes[17], bytes[18], bytes[19],
    ]);
    let last = u64::from_le_bytes([
        bytes[20], bytes[21], bytes[22], bytes[23], bytes[24], bytes[25], bytes[26], bytes[27],
    ]);
    if first > last {
        return Err(StoreError::Corrupt {
            context: format!("segment header range {first}-{last} is inverted"),
        });
    }
    // The header is untrusted until the records verify — never size an
    // allocation from it (a bit-flipped `last` would abort on capacity).
    let mut records = Vec::new();
    let mut pos = SEGMENT_HEADER_LEN;
    let mut expected = first;
    while pos < bytes.len() {
        if bytes.len() - pos < RECORD_HEADER_LEN {
            return Err(StoreError::Corrupt {
                context: "torn record header in shipped segment".to_string(),
            });
        }
        let len = le_u32(&bytes[pos..pos + 4]) as usize;
        let crc = le_u32(&bytes[pos + 4..pos + 8]);
        if bytes.len() - pos - RECORD_HEADER_LEN < len {
            return Err(StoreError::Corrupt {
                context: "torn record payload in shipped segment".to_string(),
            });
        }
        let payload = &bytes[pos + RECORD_HEADER_LEN..pos + RECORD_HEADER_LEN + len];
        if crc32(payload) != crc {
            return Err(StoreError::Corrupt {
                context: format!("checksum mismatch in shipped segment record {expected}"),
            });
        }
        let mut r = ByteReader::new(payload, "shipped segment record");
        let epoch = r.get_u64()?;
        let delta = decode_delta(&mut r)?;
        r.expect_end()?;
        if epoch != expected || epoch > last {
            return Err(StoreError::Corrupt {
                context: format!(
                    "shipped segment record epoch {epoch} breaks the header \
                     range {first}-{last} (expected {expected})"
                ),
            });
        }
        records.push((epoch, TreeDelta::from_raw(&delta)));
        expected += 1;
        pos += RECORD_HEADER_LEN + len;
    }
    if expected != last + 1 {
        return Err(StoreError::Corrupt {
            context: format!(
                "shipped segment ends at epoch {} but its header promises {last}",
                expected.saturating_sub(1)
            ),
        });
    }
    Ok(records)
}

/// Verifies a fetched segment byte-for-byte against its manifest entry
/// (length, whole-file checksum, epoch range), then decodes it. This is
/// the follower's gate: no record from a shipped segment is applied before
/// this passes.
pub fn verify_segment_bytes(
    bytes: &[u8],
    meta: &SegmentMeta,
) -> Result<Vec<(u64, TreeDelta)>, StoreError> {
    if bytes.len() as u64 != meta.len {
        return Err(StoreError::Corrupt {
            context: format!(
                "segment {} is {} bytes but the manifest promises {}",
                meta.file_name(),
                bytes.len(),
                meta.len
            ),
        });
    }
    if crc32(bytes) != meta.crc {
        return Err(StoreError::Corrupt {
            context: format!("segment {} fails its manifest checksum", meta.file_name()),
        });
    }
    let records = decode_segment(bytes)?;
    match (records.first(), records.last()) {
        (Some((first, _)), Some((last, _)))
            if *first == meta.first_epoch && *last == meta.last_epoch =>
        {
            Ok(records)
        }
        _ => Err(StoreError::Corrupt {
            context: format!(
                "segment {} decodes to a different epoch range than the manifest",
                meta.file_name()
            ),
        }),
    }
}

/// Writes one segment atomically into `dir` and returns its manifest
/// entry. The caller commits the ship by writing a manifest naming it.
pub fn write_segment_with(
    vfs: &Arc<dyn Vfs>,
    dir: &Path,
    records: &[(u64, TreeDelta)],
) -> Result<SegmentMeta, StoreError> {
    let bytes = encode_segment(records)?;
    let (first, last) = (records[0].0, records[records.len() - 1].0);
    let meta = SegmentMeta {
        first_epoch: first,
        last_epoch: last,
        crc: crc32(&bytes),
        len: bytes.len() as u64,
    };
    write_atomic(vfs, &dir.join(segment_file_name(first, last)), &bytes)?;
    Ok(meta)
}

fn encode_manifest(manifest: &Manifest) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(manifest.fencing_token);
    match manifest.anchor {
        Some((epoch, crc, len)) => {
            w.put_u8(1);
            w.put_u64(epoch);
            w.put_u64(u64::from(crc));
            w.put_u64(len);
        }
        None => w.put_u8(0),
    }
    w.put_usize(manifest.segments.len());
    for seg in &manifest.segments {
        w.put_u64(seg.first_epoch);
        w.put_u64(seg.last_epoch);
        w.put_u64(u64::from(seg.crc));
        w.put_u64(seg.len);
    }
    frame_body(MANIFEST_MAGIC, &w.into_bytes())
}

/// Decodes and verifies a manifest image (magic, version, body checksum,
/// chain contiguity).
pub fn decode_manifest(bytes: &[u8]) -> Result<Manifest, StoreError> {
    let body = unframe_body(MANIFEST_MAGIC, bytes, "manifest")?;
    let mut r = ByteReader::new(body, "manifest");
    let fencing_token = r.get_u64()?;
    let anchor = match r.get_u8()? {
        0 => None,
        1 => {
            let epoch = r.get_u64()?;
            let crc = u32::try_from(r.get_u64()?).map_err(|_| StoreError::Corrupt {
                context: "manifest anchor checksum exceeds u32".to_string(),
            })?;
            let len = r.get_u64()?;
            Some((epoch, crc, len))
        }
        other => {
            return Err(StoreError::Corrupt {
                context: format!("manifest anchor flag {other} is not 0 or 1"),
            })
        }
    };
    let count = r.get_count()?;
    let mut segments = Vec::with_capacity(count);
    for _ in 0..count {
        let first_epoch = r.get_u64()?;
        let last_epoch = r.get_u64()?;
        let crc = u32::try_from(r.get_u64()?).map_err(|_| StoreError::Corrupt {
            context: "manifest segment checksum exceeds u32".to_string(),
        })?;
        let len = r.get_u64()?;
        segments.push(SegmentMeta {
            first_epoch,
            last_epoch,
            crc,
            len,
        });
    }
    r.expect_end()?;
    let manifest = Manifest {
        fencing_token,
        anchor,
        segments,
    };
    manifest.validate()?;
    Ok(manifest)
}

/// Writes the manifest atomically into `dir` — the commit point of a ship.
pub fn write_manifest_with(
    vfs: &Arc<dyn Vfs>,
    dir: &Path,
    manifest: &Manifest,
) -> Result<(), StoreError> {
    manifest.validate()?;
    write_atomic(vfs, &dir.join(MANIFEST_FILE), &encode_manifest(manifest))
}

/// Reads and verifies the manifest from `dir`. A missing file surfaces as
/// the underlying [`StoreError::Io`] (`NotFound`).
pub fn read_manifest_with(vfs: &Arc<dyn Vfs>, dir: &Path) -> Result<Manifest, StoreError> {
    decode_manifest(&vfs.read(&dir.join(MANIFEST_FILE))?)
}

/// Durably records the manifest a follower last adopted
/// ([`REPLICA_MANIFEST_FILE`]) in its store directory.
pub fn write_replica_manifest_with(
    vfs: &Arc<dyn Vfs>,
    dir: &Path,
    manifest: &Manifest,
) -> Result<(), StoreError> {
    manifest.validate()?;
    write_atomic(
        vfs,
        &dir.join(REPLICA_MANIFEST_FILE),
        &encode_manifest(manifest),
    )
}

/// Reads the manifest a follower last adopted; `None` if the file does
/// not exist (a store that never followed a chain).
pub fn read_replica_manifest_with(
    vfs: &Arc<dyn Vfs>,
    dir: &Path,
) -> Result<Option<Manifest>, StoreError> {
    let path = dir.join(REPLICA_MANIFEST_FILE);
    if !vfs.exists(&path) {
        return Ok(None);
    }
    Ok(Some(decode_manifest(&vfs.read(&path)?)?))
}

/// Writes a fencing token durably into `dir` (an outbox or a primary's
/// store directory).
pub fn write_fence_with(vfs: &Arc<dyn Vfs>, dir: &Path, token: u64) -> Result<(), StoreError> {
    let mut w = ByteWriter::new();
    w.put_u64(token);
    write_atomic(
        vfs,
        &dir.join(FENCE_FILE),
        &frame_body(FENCE_MAGIC, &w.into_bytes()),
    )
}

/// Reads the fencing token from `dir`; `None` if the file does not exist
/// (a directory that never initialised replication).
pub fn read_fence_with(vfs: &Arc<dyn Vfs>, dir: &Path) -> Result<Option<u64>, StoreError> {
    let path = dir.join(FENCE_FILE);
    if !vfs.exists(&path) {
        return Ok(None);
    }
    let body = &vfs.read(&path)?;
    let body = unframe_body(FENCE_MAGIC, body, "fence file")?;
    let mut r = ByteReader::new(body, "fence file");
    let token = r.get_u64()?;
    r.expect_end()?;
    Ok(Some(token))
}

/// Writes a snapshot anchor (`anchor-<epoch>.cpdb`) atomically into `dir`
/// and returns its manifest entry `(epoch, crc, len)`. The caller commits
/// the ship by writing a manifest carrying the entry.
pub fn write_anchor_with(
    vfs: &Arc<dyn Vfs>,
    dir: &Path,
    epoch: u64,
    export: &EngineExport,
) -> Result<(u64, u32, u64), StoreError> {
    let bytes = crate::snapshot::encode_snapshot(epoch, export);
    let entry = (epoch, crc32(&bytes), bytes.len() as u64);
    write_atomic(vfs, &dir.join(anchor_file_name(epoch)), &bytes)?;
    Ok(entry)
}

/// Verifies fetched anchor bytes against their manifest entry (length,
/// whole-file checksum, epoch stamp) and decodes the image — the
/// follower's bootstrap gate.
pub fn verify_anchor_bytes(
    bytes: &[u8],
    entry: (u64, u32, u64),
) -> Result<EngineExport, StoreError> {
    let (epoch, crc, len) = entry;
    if bytes.len() as u64 != len {
        return Err(StoreError::Corrupt {
            context: format!(
                "anchor {} is {} bytes but the manifest promises {len}",
                anchor_file_name(epoch),
                bytes.len()
            ),
        });
    }
    if crc32(bytes) != crc {
        return Err(StoreError::Corrupt {
            context: format!(
                "anchor {} fails its manifest checksum",
                anchor_file_name(epoch)
            ),
        });
    }
    let (stamped, export) = crate::snapshot::decode_snapshot(bytes)?;
    if stamped != epoch {
        return Err(StoreError::Corrupt {
            context: format!("anchor named for epoch {epoch} is stamped {stamped}"),
        });
    }
    Ok(export)
}

/// The divergence digest of one epoch's canonical state: CRC-32 over the
/// epoch stamp, the engine configuration, and the full tree (`f64`s as
/// bits). Two correct replicas at the same epoch always agree on it, no
/// matter which artifacts their query histories happened to build; a
/// byte-level drift in the tree or config flips it.
pub fn export_digest(epoch: u64, export: &EngineExport) -> u32 {
    let mut w = ByteWriter::new();
    w.put_u64(epoch);
    encode_config(&mut w, export);
    encode_tree(&mut w, &export.tree);
    crc32(&w.into_bytes())
}

/// magic · version · len u32 · crc32 u32 · body.
fn frame_body(magic: &[u8; 8], body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAMED_HEADER_LEN + RECORD_HEADER_LEN + body.len());
    out.extend_from_slice(magic);
    out.extend_from_slice(&SHIP_VERSION.to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

fn unframe_body<'a>(magic: &[u8; 8], bytes: &'a [u8], what: &str) -> Result<&'a [u8], StoreError> {
    if bytes.len() < FRAMED_HEADER_LEN + RECORD_HEADER_LEN {
        return Err(StoreError::Corrupt {
            context: format!("{what} shorter than its header"),
        });
    }
    if &bytes[..8] != magic {
        return Err(StoreError::Corrupt {
            context: format!("bad {what} magic"),
        });
    }
    let version = le_u32(&bytes[8..12]);
    if version != SHIP_VERSION {
        return Err(StoreError::UnsupportedVersion { found: version });
    }
    let len = le_u32(&bytes[12..16]) as usize;
    let crc = le_u32(&bytes[16..20]);
    let body = &bytes[FRAMED_HEADER_LEN + RECORD_HEADER_LEN..];
    if body.len() != len {
        return Err(StoreError::Corrupt {
            context: format!("{what} body length mismatch"),
        });
    }
    if crc32(body) != crc {
        return Err(StoreError::Corrupt {
            context: format!("{what} fails its checksum"),
        });
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::std_vfs;
    use cpdb_andxor::RawDelta;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn temp_dir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cpdb_ship_test_{}_{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn records(first: u64, count: u64) -> Vec<(u64, TreeDelta)> {
        (first..first + count)
            .map(|epoch| {
                (
                    epoch,
                    TreeDelta::from_raw(&RawDelta::LeafValue {
                        leaf: 0,
                        value: epoch as f64,
                    }),
                )
            })
            .collect()
    }

    use std::path::PathBuf;

    #[test]
    fn segment_roundtrips() {
        let recs = records(4, 3);
        let bytes = encode_segment(&recs).unwrap();
        assert_eq!(decode_segment(&bytes).unwrap(), recs);
    }

    #[test]
    fn empty_and_non_contiguous_segments_are_refused() {
        assert!(matches!(
            encode_segment(&[]),
            Err(StoreError::Corrupt { .. })
        ));
        let mut recs = records(1, 3);
        recs.remove(1);
        assert!(matches!(
            encode_segment(&recs),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn every_single_bit_flip_in_a_segment_is_detected() {
        let recs = records(7, 2);
        let bytes = encode_segment(&recs).unwrap();
        for i in 0..bytes.len() {
            for bit in [0x01u8, 0x80u8] {
                let mut flipped = bytes.clone();
                flipped[i] ^= bit;
                assert!(
                    decode_segment(&flipped).is_err(),
                    "bit flip at byte {i} went undetected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_of_a_segment_is_detected() {
        let recs = records(1, 2);
        let bytes = encode_segment(&recs).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                decode_segment(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn verify_segment_bytes_cross_checks_the_manifest_entry() {
        let recs = records(2, 2);
        let vfs = std_vfs();
        let dir = temp_dir();
        let meta = write_segment_with(&vfs, &dir, &recs).unwrap();
        let bytes = std::fs::read(dir.join(meta.file_name())).unwrap();
        assert_eq!(verify_segment_bytes(&bytes, &meta).unwrap(), recs);
        // Wrong length.
        let mut short = bytes.clone();
        short.pop();
        assert!(verify_segment_bytes(&short, &meta).is_err());
        // Wrong checksum in the manifest.
        let bad = SegmentMeta {
            crc: meta.crc ^ 1,
            ..meta
        };
        assert!(verify_segment_bytes(&bytes, &bad).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_roundtrips_and_validates_chains() {
        let manifest = Manifest {
            fencing_token: 7,
            anchor: Some((10, 0xDEAD_BEEF, 1234)),
            segments: vec![
                SegmentMeta {
                    first_epoch: 11,
                    last_epoch: 13,
                    crc: 1,
                    len: 100,
                },
                SegmentMeta {
                    first_epoch: 14,
                    last_epoch: 14,
                    crc: 2,
                    len: 50,
                },
            ],
        };
        let vfs = std_vfs();
        let dir = temp_dir();
        write_manifest_with(&vfs, &dir, &manifest).unwrap();
        assert_eq!(read_manifest_with(&vfs, &dir).unwrap(), manifest);
        assert_eq!(manifest.shipped_epoch(), 14);

        let broken = Manifest {
            segments: vec![SegmentMeta {
                first_epoch: 12,
                last_epoch: 13,
                crc: 1,
                len: 1,
            }],
            ..manifest
        };
        assert!(matches!(broken.validate(), Err(StoreError::Corrupt { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_bit_flips_are_detected() {
        let manifest = Manifest {
            fencing_token: 3,
            anchor: Some((5, 99, 10)),
            segments: vec![SegmentMeta {
                first_epoch: 6,
                last_epoch: 8,
                crc: 4,
                len: 40,
            }],
        };
        let bytes = encode_manifest(&manifest);
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x10;
            assert!(
                decode_manifest(&flipped).is_err(),
                "manifest bit flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn replica_manifest_roundtrips() {
        let vfs = std_vfs();
        let dir = temp_dir();
        assert_eq!(read_replica_manifest_with(&vfs, &dir).unwrap(), None);
        let manifest = Manifest {
            fencing_token: 2,
            anchor: Some((4, 77, 20)),
            segments: vec![SegmentMeta {
                first_epoch: 5,
                last_epoch: 6,
                crc: 3,
                len: 30,
            }],
        };
        write_replica_manifest_with(&vfs, &dir, &manifest).unwrap();
        assert_eq!(
            read_replica_manifest_with(&vfs, &dir).unwrap(),
            Some(manifest)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fence_token_roundtrips() {
        let vfs = std_vfs();
        let dir = temp_dir();
        assert_eq!(read_fence_with(&vfs, &dir).unwrap(), None);
        write_fence_with(&vfs, &dir, 41).unwrap();
        assert_eq!(read_fence_with(&vfs, &dir).unwrap(), Some(41));
        write_fence_with(&vfs, &dir, 42).unwrap();
        assert_eq!(read_fence_with(&vfs, &dir).unwrap(), Some(42));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_names_roundtrip() {
        assert_eq!(
            parse_segment_file_name(&segment_file_name(3, 9)),
            Some((3, 9))
        );
        assert_eq!(parse_anchor_file_name(&anchor_file_name(17)), Some(17));
        assert_eq!(parse_segment_file_name("segment-3.cpdb"), None);
        assert_eq!(parse_anchor_file_name("snapshot-3.cpdb"), None);
    }
}
