//! The write-ahead log: every [`TreeDelta`] a live engine applies is
//! length-prefixed, checksummed, and fsync'd here *before* the epoch it
//! produces is published.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "CPDBWAL1" · version u32
//! then per record: len u32 · crc32 u32 · payload [len]
//! payload = epoch u64 · encoded delta
//! ```
//!
//! Recovery semantics: [`Wal::open`] replays every intact record and
//! truncates the file at the first torn or checksum-failing one — a crash
//! mid-append loses only the record that was never acknowledged. A record
//! whose checksum passes but whose payload does not decode is *not* a torn
//! write (the checksum covered it); that is real corruption and surfaces as
//! a hard [`StoreError::Corrupt`].
//!
//! All file I/O goes through a [`Vfs`], so tests drive every append,
//! fsync, rollback, and compaction rename through injected disk faults.
//! If a failed append cannot be rolled back (the `set_len` restoring the
//! acknowledged prefix itself errors), the on-disk tail position is
//! unknown; the log then marks itself **unusable** and refuses every
//! further append with [`StoreError::WalUnusable`] rather than risking a
//! record landing after a torn region. Reopening the file re-scans and
//! truncates the tail, restoring a usable log.

use crate::checksum::crc32;
use crate::codec::{decode_delta, encode_delta, ByteReader, ByteWriter};
use crate::vfs::{std_vfs, Vfs, VfsFile};
use crate::StoreError;
use cpdb_andxor::TreeDelta;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"CPDBWAL1";
/// Current WAL format version.
pub const WAL_VERSION: u32 = 1;
const HEADER_LEN: usize = 8 + 4;
const RECORD_HEADER_LEN: usize = 4 + 4;

fn header_bytes() -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..8].copy_from_slice(MAGIC);
    h[8..].copy_from_slice(&WAL_VERSION.to_le_bytes());
    h
}

/// An open write-ahead log. Appends go straight to disk (`fdatasync` before
/// returning); replay happens once, in [`Wal::open`].
pub struct Wal {
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
    file: Box<dyn VfsFile>,
    /// Length of the acknowledged prefix. A failed append rolls the file
    /// back to this, so later appends can never land after a torn region.
    len: u64,
    /// Set when a rollback failed and the on-disk tail position is unknown.
    unusable: Option<String>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("unusable", &self.unusable)
            .finish()
    }
}

/// Scans `bytes` (starting after the file header) into intact records.
/// Returns the records and the byte offset of the end of the last intact
/// record — anything past it is a torn tail to truncate.
fn scan_records(bytes: &[u8]) -> Result<(Vec<(u64, TreeDelta)>, usize), StoreError> {
    let mut records = Vec::new();
    let mut pos = HEADER_LEN;
    let mut valid_end = pos;
    while pos < bytes.len() {
        if bytes.len() - pos < RECORD_HEADER_LEN {
            break; // torn record header
        }
        let len = crate::codec::le_u32(&bytes[pos..pos + 4]) as usize;
        let crc = crate::codec::le_u32(&bytes[pos + 4..pos + 8]);
        if bytes.len() - pos - RECORD_HEADER_LEN < len {
            break; // torn payload
        }
        let payload = &bytes[pos + RECORD_HEADER_LEN..pos + RECORD_HEADER_LEN + len];
        if crc32(payload) != crc {
            break; // the tail record was torn mid-write
        }
        let mut r = ByteReader::new(payload, "wal record");
        let epoch = r.get_u64()?;
        let delta = decode_delta(&mut r)?;
        r.expect_end()?;
        records.push((epoch, TreeDelta::from_raw(&delta)));
        pos += RECORD_HEADER_LEN + len;
        valid_end = pos;
    }
    Ok((records, valid_end))
}

/// Read-only scan of a whole WAL image (header included): validates the
/// header, then returns the intact records plus the byte offset where the
/// intact prefix ends (anything past it is a torn tail). Unlike
/// [`Wal::open_with`] this never touches the file — it is the basis for
/// segment shipping ([`crate::ship`]) and the deep scan ([`crate::verify`]),
/// both of which must observe the log without truncating it.
///
/// A file shorter than the header is the fresh-file crash window
/// [`Wal::open_with`] repairs, so it scans as zero records with no torn
/// tail.
pub fn scan_wal_bytes(bytes: &[u8]) -> Result<(Vec<(u64, TreeDelta)>, usize), StoreError> {
    if bytes.len() < HEADER_LEN {
        if header_bytes().starts_with(bytes) {
            return Ok((Vec::new(), bytes.len()));
        }
        return Err(StoreError::Corrupt {
            context: "wal has a malformed header".to_string(),
        });
    }
    if &bytes[..8] != MAGIC {
        return Err(StoreError::Corrupt {
            context: "bad wal magic".to_string(),
        });
    }
    let version = crate::codec::le_u32(&bytes[8..12]);
    if version != WAL_VERSION {
        return Err(StoreError::UnsupportedVersion { found: version });
    }
    scan_records(bytes)
}

fn frame(epoch: u64, delta: &TreeDelta) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(epoch);
    encode_delta(&mut w, &delta.to_raw());
    let payload = w.into_bytes();
    debug_assert!(payload.len() <= u32::MAX as usize);
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

impl Wal {
    /// Opens (or creates) the log at `path` on the production filesystem,
    /// replaying every intact record. See [`Wal::open_with`].
    pub fn open(path: &Path) -> Result<(Wal, Vec<(u64, TreeDelta)>), StoreError> {
        Wal::open_with(std_vfs(), path)
    }

    /// Opens (or creates) the log at `path` through `vfs`, replaying every
    /// intact record.
    ///
    /// A torn tail — a record whose frame is incomplete or whose checksum
    /// fails — is truncated away so the file ends on the last acknowledged
    /// record. Returns the log handle positioned for appending plus the
    /// replayed `(epoch, delta)` records in append order.
    pub fn open_with(
        vfs: Arc<dyn Vfs>,
        path: &Path,
    ) -> Result<(Wal, Vec<(u64, TreeDelta)>), StoreError> {
        let mut file = vfs.open_rw(path)?;
        let bytes = file.read_all()?;

        if bytes.len() < HEADER_LEN {
            // Fresh file, or a crash tore the header itself before any
            // record could have been acknowledged: (re)write the header.
            if !header_bytes().starts_with(&bytes) {
                return Err(StoreError::Corrupt {
                    context: format!("wal at {} has a malformed header", path.display()),
                });
            }
            file.set_len(0)?;
            file.seek_end()?;
            file.write_all(&header_bytes())?;
            file.sync_all()?;
            return Ok((
                Wal {
                    vfs,
                    path: path.to_path_buf(),
                    file,
                    len: HEADER_LEN as u64,
                    unusable: None,
                },
                Vec::new(),
            ));
        }
        if &bytes[..8] != MAGIC {
            return Err(StoreError::Corrupt {
                context: format!("bad wal magic in {}", path.display()),
            });
        }
        let version = crate::codec::le_u32(&bytes[8..12]);
        if version != WAL_VERSION {
            return Err(StoreError::UnsupportedVersion { found: version });
        }

        let (records, valid_end) = scan_records(&bytes)?;
        if valid_end < bytes.len() {
            file.set_len(valid_end as u64)?;
            file.sync_all()?;
        }
        file.seek_end()?;
        Ok((
            Wal {
                vfs,
                path: path.to_path_buf(),
                file,
                len: valid_end as u64,
                unusable: None,
            },
            records,
        ))
    }

    /// Writes `buf` at the end of the acknowledged prefix and fsyncs. On
    /// failure the file is rolled back to the prefix so a partially-written
    /// frame cannot poison later appends; if the rollback itself fails the
    /// log becomes unusable (see [`StoreError::WalUnusable`]).
    fn append_bytes(&mut self, buf: &[u8]) -> Result<(), StoreError> {
        if let Some(context) = &self.unusable {
            return Err(StoreError::WalUnusable {
                context: context.clone(),
            });
        }
        let attempt = self
            .file
            .write_all(buf)
            .and_then(|()| self.file.sync_data());
        if let Err(e) = attempt {
            let rollback = self
                .file
                .set_len(self.len)
                .and_then(|()| self.file.seek_end().map(|_| ()));
            if let Err(rb) = rollback {
                // The tail may hold a torn frame we could not cut away:
                // every further append is refused until a reopen re-scans
                // and truncates the file.
                let context = format!("append failed ({e}); rollback failed ({rb})");
                self.unusable = Some(context.clone());
                return Err(StoreError::WalUnusable { context });
            }
            return Err(e.into());
        }
        self.len += buf.len() as u64;
        Ok(())
    }

    /// Appends one record and fsyncs before returning: once this returns
    /// `Ok`, the record survives a crash.
    pub fn append(&mut self, epoch: u64, delta: &TreeDelta) -> Result<(), StoreError> {
        self.append_bytes(&frame(epoch, delta))
    }

    /// Appends a batch of records with a single write and a single fsync —
    /// the group commit used by atomic multi-delta publishes. Either the
    /// whole batch is durable or (on a crash mid-write) recovery truncates
    /// back to the last record boundary.
    pub fn append_all<'a>(
        &mut self,
        records: impl IntoIterator<Item = (u64, &'a TreeDelta)>,
    ) -> Result<(), StoreError> {
        let mut buf = Vec::new();
        for (epoch, delta) in records {
            buf.extend_from_slice(&frame(epoch, delta));
        }
        if buf.is_empty() {
            return Ok(());
        }
        self.append_bytes(&buf)
    }

    /// Compacts the log: drops every record with epoch `<= epoch`, keeping
    /// the rest in order. Runs as an atomic rewrite (tmp file + rename), so
    /// a crash mid-compaction leaves the old log intact.
    pub fn truncate_through(&mut self, epoch: u64) -> Result<(), StoreError> {
        if let Some(context) = &self.unusable {
            return Err(StoreError::WalUnusable {
                context: context.clone(),
            });
        }
        let bytes = self.vfs.read(&self.path)?;
        let (records, _) = scan_records(&bytes)?;

        // Rewrite even when no record is at or below `epoch`: a retry after a
        // failed `sync_dir` must sync again, or a power cut undoes the rename.
        let mut out = Vec::new();
        out.extend_from_slice(&header_bytes());
        for (record_epoch, delta) in &records {
            if *record_epoch > epoch {
                out.extend_from_slice(&frame(*record_epoch, delta));
            }
        }

        let tmp = self.path.with_extension("tmp");
        {
            let mut f = self.vfs.create_truncated(&tmp)?;
            f.write_all(&out)?;
            f.sync_all()?;
        }
        self.vfs.rename(&tmp, &self.path)?;
        if let Some(dir) = self.path.parent() {
            self.vfs.sync_dir(dir)?;
        }
        // The old handle points at the unlinked inode; reopen the new file.
        let mut file = self.vfs.open_rw(&self.path)?;
        file.seek_end()?;
        self.file = file;
        self.len = out.len() as u64;
        Ok(())
    }

    /// Cuts the log back so no record with epoch `> epoch` remains — the
    /// inverse of [`truncate_through`](Self::truncate_through), used on
    /// the **tail**. A failed append whose frame nonetheless reached the
    /// file (the fsync — or the rollback after it — failed) strands a
    /// valid-looking but never-acknowledged suffix; recovery treats the
    /// caller's publish pointer as the commit point and discards that
    /// suffix exactly like a torn frame.
    pub fn discard_after(&mut self, epoch: u64) -> Result<(), StoreError> {
        if let Some(context) = &self.unusable {
            return Err(StoreError::WalUnusable {
                context: context.clone(),
            });
        }
        let bytes = self.vfs.read(&self.path)?;
        let (records, _) = scan_records(&bytes)?;
        let mut end = HEADER_LEN;
        let mut pos = HEADER_LEN;
        for (record_epoch, _) in &records {
            // scan_records validated these frames, so the length fields
            // are intact and in bounds.
            let len = crate::codec::le_u32(&bytes[pos..pos + 4]) as usize;
            pos += RECORD_HEADER_LEN + len;
            if *record_epoch <= epoch {
                end = pos;
            } else {
                break;
            }
        }
        self.file.set_len(end as u64)?;
        self.file.sync_all()?;
        self.file.seek_end()?;
        self.len = end as u64;
        Ok(())
    }

    /// If a failed rollback stranded the log, the failure that did it.
    /// An unusable log refuses all appends and compactions; reopen the
    /// file to restore service.
    pub fn unusable(&self) -> Option<&str> {
        self.unusable.as_deref()
    }

    /// The log's path on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultVfs;
    use cpdb_andxor::RawDelta;

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cpdb_wal_test_{}_{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.cpdb")
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    fn sample_deltas() -> Vec<TreeDelta> {
        vec![
            TreeDelta::from_raw(&RawDelta::LeafValue {
                leaf: 1,
                value: 42.5,
            }),
            TreeDelta::from_raw(&RawDelta::XorEdgeProbability {
                xor: 3,
                child: 1,
                probability: 0.25,
            }),
            TreeDelta::from_raw(&RawDelta::InsertTupleBlock {
                under: 6,
                key: 9,
                alternatives: vec![(10.0, 0.5), (20.0, 0.25)],
            }),
        ]
    }

    #[test]
    fn append_then_reopen_replays_in_order() {
        let path = temp_path("replay");
        let deltas = sample_deltas();
        {
            let (mut wal, replayed) = Wal::open(&path).unwrap();
            assert!(replayed.is_empty());
            for (i, d) in deltas.iter().enumerate() {
                wal.append(i as u64 + 1, d).unwrap();
            }
        }
        let (_wal, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed.len(), deltas.len());
        for (i, (epoch, delta)) in replayed.iter().enumerate() {
            assert_eq!(*epoch, i as u64 + 1);
            assert_eq!(delta, &deltas[i]);
        }
        cleanup(&path);
    }

    #[test]
    fn torn_tail_at_every_byte_boundary_recovers_prefix() {
        let path = temp_path("torn");
        let deltas = sample_deltas();
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            for (i, d) in deltas.iter().enumerate() {
                wal.append(i as u64 + 1, d).unwrap();
            }
        }
        let full = std::fs::read(&path).unwrap();
        let last_len = frame(3, &deltas[2]).len();
        let prefix_end = full.len() - last_len;
        // Tear the final record at every byte boundary: recovery must yield
        // exactly the first two records and truncate the file to them.
        for cut in prefix_end..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (mut wal, replayed) = Wal::open(&path).unwrap();
            assert_eq!(replayed.len(), 2, "cut at {cut}");
            assert_eq!(std::fs::metadata(&path).unwrap().len(), prefix_end as u64);
            // The log stays appendable after truncation.
            wal.append(3, &deltas[2]).unwrap();
            drop(wal);
            let (_w, replayed) = Wal::open(&path).unwrap();
            assert_eq!(replayed.len(), 3);
        }
        cleanup(&path);
    }

    #[test]
    fn discard_after_cuts_the_unacknowledged_suffix() {
        let path = temp_path("discard");
        let deltas = sample_deltas();
        let (mut wal, _) = Wal::open(&path).unwrap();
        for (i, d) in deltas.iter().enumerate() {
            wal.append(i as u64 + 1, d).unwrap();
        }
        wal.discard_after(1).unwrap();
        // The log stays appendable at the cut point.
        wal.append(2, &deltas[1]).unwrap();
        drop(wal);
        let (_w, replayed) = Wal::open(&path).unwrap();
        assert_eq!(
            replayed.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(replayed[0].1, deltas[0]);
        assert_eq!(replayed[1].1, deltas[1]);
        cleanup(&path);
    }

    #[test]
    fn checksum_flip_in_tail_record_drops_it() {
        let path = temp_path("crcflip");
        let deltas = sample_deltas();
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            for (i, d) in deltas.iter().enumerate() {
                wal.append(i as u64 + 1, d).unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let (_wal, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed.len(), 2);
        cleanup(&path);
    }

    #[test]
    fn valid_checksum_but_undecodable_payload_is_hard_corruption() {
        let path = temp_path("hardcorrupt");
        {
            let (_wal, _) = Wal::open(&path).unwrap();
        }
        // Hand-craft a record whose payload is garbage but whose checksum
        // matches: that cannot be a torn write, so it must not be silently
        // truncated.
        let payload = b"definitely not a delta".to_vec();
        let mut record = Vec::new();
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&crc32(&payload).to_le_bytes());
        record.extend_from_slice(&payload);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&record);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(Wal::open(&path), Err(StoreError::Corrupt { .. })));
        cleanup(&path);
    }

    #[test]
    fn truncate_through_compacts_prefix_epochs() {
        let path = temp_path("compact");
        let deltas = sample_deltas();
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            for (i, d) in deltas.iter().enumerate() {
                wal.append(i as u64 + 1, d).unwrap();
            }
            wal.truncate_through(2).unwrap();
            // The handle stays appendable on the rewritten file.
            wal.append(4, &deltas[0]).unwrap();
        }
        let (_wal, replayed) = Wal::open(&path).unwrap();
        assert_eq!(
            replayed.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
            vec![3, 4]
        );
        assert_eq!(replayed[0].1, deltas[2]);
        cleanup(&path);
    }

    #[test]
    fn wrong_magic_is_refused() {
        let path = temp_path("magic");
        std::fs::write(&path, b"NOTAWAL1\x01\x00\x00\x00").unwrap();
        assert!(matches!(Wal::open(&path), Err(StoreError::Corrupt { .. })));
        cleanup(&path);
    }

    #[test]
    fn future_version_is_refused() {
        let path = temp_path("version");
        let mut bytes = header_bytes().to_vec();
        bytes[8..12].copy_from_slice(&9u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Wal::open(&path),
            Err(StoreError::UnsupportedVersion { found: 9 })
        ));
        cleanup(&path);
    }

    #[test]
    fn failed_append_rolls_back_and_stays_usable() {
        let vfs = FaultVfs::new();
        let path = PathBuf::from("/mem/wal.cpdb");
        let deltas = sample_deltas();
        let (mut wal, _) = Wal::open_with(Arc::new(vfs.clone()), &path).unwrap();
        wal.append(1, &deltas[0]).unwrap();
        // One-shot write failure: rollback succeeds, the log stays usable.
        vfs.fail_at(vfs.op_count(), std::io::ErrorKind::Interrupted, false);
        assert!(matches!(wal.append(2, &deltas[1]), Err(StoreError::Io(_))));
        assert!(wal.unusable().is_none());
        wal.append(2, &deltas[1]).unwrap();
        drop(wal);
        let (_w, replayed) = Wal::open_with(Arc::new(vfs.clone()), &path).unwrap();
        assert_eq!(
            replayed.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
            vec![1, 2]
        );
    }

    /// Regression: a failed append whose rollback (`set_len`) also fails
    /// used to leave the WAL in an unstated condition — appends continued
    /// against an unknown tail. It must instead become unusable and refuse
    /// every further append until reopened.
    #[test]
    fn failed_rollback_marks_the_wal_unusable() {
        let vfs = FaultVfs::new();
        let path = PathBuf::from("/mem/wal.cpdb");
        let deltas = sample_deltas();
        let (mut wal, _) = Wal::open_with(Arc::new(vfs.clone()), &path).unwrap();
        wal.append(1, &deltas[0]).unwrap();
        // Persistent outage: the append's write fails AND the rollback's
        // set_len fails right after it.
        vfs.fail_at(vfs.op_count(), std::io::ErrorKind::Other, true);
        assert!(matches!(
            wal.append(2, &deltas[1]),
            Err(StoreError::WalUnusable { .. })
        ));
        assert!(wal.unusable().is_some());
        vfs.clear_faults();
        // The disk is healthy again, but the tail position is unknown:
        // appends and compactions stay refused with the typed error...
        let before = vfs.op_count();
        assert!(matches!(
            wal.append(2, &deltas[1]),
            Err(StoreError::WalUnusable { .. })
        ));
        assert!(matches!(
            wal.truncate_through(1),
            Err(StoreError::WalUnusable { .. })
        ));
        // ...without touching the disk at all.
        assert_eq!(vfs.op_count(), before);
        drop(wal);
        // Reopening re-scans, truncates the torn region, and restores
        // service with only the acknowledged record.
        let (mut wal, replayed) = Wal::open_with(Arc::new(vfs.clone()), &path).unwrap();
        assert_eq!(replayed.iter().map(|(e, _)| *e).collect::<Vec<_>>(), [1]);
        wal.append(2, &deltas[1]).unwrap();
    }
}
