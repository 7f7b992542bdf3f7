//! The versioned, checksummed snapshot file: one engine epoch — tree,
//! configuration, and every built artifact — as sections behind a
//! magic/version header, written atomically.
//!
//! Layout (all integers little-endian, `f64` as IEEE-754 bits):
//!
//! ```text
//! magic "CPDBSNP1" · version u32 · epoch u64 · section_count u32
//! then per section: tag u8 · len u64 · crc32 u32 · payload [len]
//! ```
//!
//! Readers verify the magic, the version, every section checksum, and the
//! decoded tree's structural constraints, so no torn, truncated, or
//! bit-flipped snapshot ever yields an engine. Writers stage the full image
//! in a temporary file, fsync it, and `rename(2)` it into place (then fsync
//! the directory), so a crash leaves either the old snapshot or the new one
//! — never a hybrid.

use crate::checksum::crc32_parts;
use crate::codec::{
    decode_cocluster, decode_config, decode_context, decode_tree, encode_cocluster, encode_config,
    encode_context, encode_tree, get_f64s, put_f64s, ByteReader, ByteWriter,
};
use crate::vfs::{std_vfs, write_atomic, Vfs};
use crate::StoreError;
use cpdb_engine::EngineExport;
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"CPDBSNP1";
/// Current snapshot format version.
///
/// Version 8 dropped the Kendall preference section (tag 4, the row-major
/// `n × n` tournament): the engine keeps no tournament, so there is none
/// to persist. Tag 4 is not reused.
///
/// Version 7 dropped the Top-k strategy fields from the config section,
/// which is now seed, k-range, thread count and the optional group-by
/// matrix: each Top-k metric has one algorithm, so there is no solver to
/// persist. Version 6 held, after the k-range, a Kendall strategy tag
/// (pivot or footrule proxy), the pivot's trial count (present only for
/// the pivot) and an intersection strategy tag (assignment or Υ_H).
///
/// Version 6 dropped the Kendall sample count from the config section:
/// Kendall answers report their `E[d_K]` exactly, so the engine has no
/// sample count to persist.
///
/// Version 5 held one rank context, at the largest `k` the engine has
/// served (its column prefixes serve every smaller `k`): the contexts
/// section is its `k`, a count, then the row-major `n × k` rank-PMF table,
/// where version 4 wrote a count of contexts, each in that form.
///
/// Version 4 was the first in which no section carries a tuple key: it
/// stored the marginals as one probability per tree alternative in sorted
/// `(key, value)` order, and dropped the Jaccard-candidate and key-index
/// sections. Version 3 had dropped the keys from the rank-PMF rows and the
/// preference section, version 2 from the co-clustering section. Images of
/// any earlier version are refused with [`StoreError::UnsupportedVersion`];
/// no decoder for them is kept.
pub const SNAPSHOT_VERSION: u32 = 8;

const SECTION_CONFIG: u8 = 1;
const SECTION_TREE: u8 = 2;
const SECTION_CONTEXTS: u8 = 3;
const SECTION_COCLUSTER: u8 = 5;
const SECTION_MARGINALS: u8 = 6;

/// The digest of one section covers its tag and length as well as the
/// payload, so a bit flip cannot silently relabel a valid payload as a
/// different artifact kind.
fn section_crc(tag: u8, payload: &[u8]) -> u32 {
    crc32_parts(&[&[tag], &(payload.len() as u64).to_le_bytes(), payload])
}

fn push_section(out: &mut Vec<u8>, tag: u8, payload: Vec<u8>) {
    out.push(tag);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&section_crc(tag, &payload).to_le_bytes());
    out.extend_from_slice(&payload);
}

/// Serialises `(epoch, export)` into the snapshot byte image.
pub fn encode_snapshot(epoch: u64, export: &EngineExport) -> Vec<u8> {
    let mut sections: Vec<(u8, Vec<u8>)> = Vec::new();

    let mut w = ByteWriter::new();
    encode_config(&mut w, export);
    sections.push((SECTION_CONFIG, w.into_bytes()));

    let mut w = ByteWriter::new();
    encode_tree(&mut w, &export.tree);
    sections.push((SECTION_TREE, w.into_bytes()));

    if let Some(context) = &export.context {
        let mut w = ByteWriter::new();
        encode_context(&mut w, context);
        sections.push((SECTION_CONTEXTS, w.into_bytes()));
    }
    if let Some(cocluster) = &export.cocluster {
        let mut w = ByteWriter::new();
        encode_cocluster(&mut w, cocluster);
        sections.push((SECTION_COCLUSTER, w.into_bytes()));
    }
    if let Some(probabilities) = &export.marginals {
        let mut w = ByteWriter::new();
        put_f64s(&mut w, probabilities);
        sections.push((SECTION_MARGINALS, w.into_bytes()));
    }

    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (tag, payload) in sections {
        push_section(&mut out, tag, payload);
    }
    out
}

/// Reads and checks the header's magic and version, returning the epoch
/// stamp.
fn read_header(r: &mut ByteReader<'_>) -> Result<u64, StoreError> {
    let magic: [u8; 8] = [
        r.get_u8()?,
        r.get_u8()?,
        r.get_u8()?,
        r.get_u8()?,
        r.get_u8()?,
        r.get_u8()?,
        r.get_u8()?,
        r.get_u8()?,
    ];
    if &magic != MAGIC {
        return Err(StoreError::Corrupt {
            context: format!("bad snapshot magic {magic:02x?}"),
        });
    }
    let version = r.get_u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(StoreError::UnsupportedVersion { found: version });
    }
    r.get_u64()
}

/// Decodes and integrity-checks a snapshot byte image back into
/// `(epoch, export)`.
pub fn decode_snapshot(bytes: &[u8]) -> Result<(u64, EngineExport), StoreError> {
    let mut r = ByteReader::new(bytes, "snapshot header");
    let epoch = read_header(&mut r)?;
    let section_count = r.get_u32()?;

    let mut config_payload: Option<&[u8]> = None;
    let mut tree_payload: Option<&[u8]> = None;
    let mut artifact_payloads: Vec<(u8, &[u8])> = Vec::new();

    let mut pos = 8 + 4 + 8 + 4;
    for i in 0..section_count {
        let header_err = |detail: &str| StoreError::Corrupt {
            context: format!("snapshot section {i} header: {detail}"),
        };
        if bytes.len() - pos < 1 + 8 + 4 {
            return Err(header_err("truncated"));
        }
        let tag = bytes[pos];
        let len = crate::codec::le_u64(&bytes[pos + 1..pos + 9]) as usize;
        let crc = crate::codec::le_u32(&bytes[pos + 9..pos + 13]);
        pos += 13;
        if bytes.len() - pos < len {
            return Err(header_err(&format!(
                "payload of {len} bytes, {} left",
                bytes.len() - pos
            )));
        }
        let payload = &bytes[pos..pos + len];
        pos += len;
        if section_crc(tag, payload) != crc {
            return Err(StoreError::Corrupt {
                context: format!("snapshot section {i} (tag {tag}) checksum mismatch"),
            });
        }
        match tag {
            SECTION_CONFIG => config_payload = Some(payload),
            SECTION_TREE => tree_payload = Some(payload),
            SECTION_CONTEXTS | SECTION_COCLUSTER | SECTION_MARGINALS => {
                artifact_payloads.push((tag, payload))
            }
            other => {
                return Err(StoreError::Corrupt {
                    context: format!("unknown snapshot section tag {other}"),
                })
            }
        }
    }
    if pos != bytes.len() {
        return Err(StoreError::Corrupt {
            context: format!("snapshot has {} trailing bytes", bytes.len() - pos),
        });
    }

    let tree_payload = tree_payload.ok_or(StoreError::Corrupt {
        context: "snapshot is missing the tree section".to_string(),
    })?;
    let mut tr = ByteReader::new(tree_payload, "snapshot tree section");
    let tree = decode_tree(&mut tr)?;
    tr.expect_end()?;

    let config_payload = config_payload.ok_or(StoreError::Corrupt {
        context: "snapshot is missing the config section".to_string(),
    })?;
    let mut cr = ByteReader::new(config_payload, "snapshot config section");
    let mut export = decode_config(&mut cr, tree)?;
    cr.expect_end()?;

    for (tag, payload) in artifact_payloads {
        match tag {
            SECTION_CONTEXTS => {
                let mut r = ByteReader::new(payload, "snapshot contexts section");
                export.context = Some(decode_context(&mut r)?);
                r.expect_end()?;
            }
            SECTION_COCLUSTER => {
                let mut r = ByteReader::new(payload, "snapshot cocluster section");
                export.cocluster = Some(decode_cocluster(&mut r)?);
                r.expect_end()?;
            }
            SECTION_MARGINALS => {
                let mut r = ByteReader::new(payload, "snapshot marginals section");
                export.marginals = Some(get_f64s(&mut r)?);
                r.expect_end()?;
            }
            _ => unreachable!("only artifact tags are collected"),
        }
    }
    Ok((epoch, export))
}

/// Writes a snapshot atomically: the full image goes to `<path>.tmp`, is
/// fsync'd, renamed over `path`, and the parent directory is fsync'd so the
/// rename itself is durable. Returns the encoded size in bytes.
pub fn write_snapshot(path: &Path, epoch: u64, export: &EngineExport) -> Result<u64, StoreError> {
    write_snapshot_with(&std_vfs(), path, epoch, export)
}

/// [`write_snapshot`] routed through an explicit [`Vfs`] — the form the
/// store uses, so fault injection covers the staging write, the fsync, the
/// rename, and the directory fsync.
pub fn write_snapshot_with(
    vfs: &Arc<dyn Vfs>,
    path: &Path,
    epoch: u64,
    export: &EngineExport,
) -> Result<u64, StoreError> {
    let bytes = encode_snapshot(epoch, export);
    write_atomic(vfs, path, &bytes)?;
    Ok(bytes.len() as u64)
}

/// The epoch stamped in a snapshot image's header, after checking its magic
/// and version; the sections are not read.
pub(crate) fn image_epoch(image: &[u8]) -> Result<u64, StoreError> {
    read_header(&mut ByteReader::new(image, "snapshot header"))
}

/// Reads and validates a snapshot file.
pub fn read_snapshot(path: &Path) -> Result<(u64, EngineExport), StoreError> {
    read_snapshot_with(&std_vfs(), path)
}

/// [`read_snapshot`] routed through an explicit [`Vfs`].
pub fn read_snapshot_with(
    vfs: &Arc<dyn Vfs>,
    path: &Path,
) -> Result<(u64, EngineExport), StoreError> {
    let bytes = vfs.read(path)?;
    decode_snapshot(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpdb_andxor::AndXorTreeBuilder;
    use cpdb_engine::{ConsensusEngineBuilder, Query, SetMetric, TopKMetric, Variant};

    fn warm_export() -> EngineExport {
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
        let tree = b.build(root).unwrap();
        let engine = ConsensusEngineBuilder::new(tree).seed(5).build().unwrap();
        for q in [
            Query::TopK {
                k: 2,
                metric: TopKMetric::Kendall,
                variant: Variant::Mean,
            },
            Query::SetConsensus {
                metric: SetMetric::Jaccard,
                variant: Variant::Mean,
            },
            Query::Clustering { restarts: 4 },
        ] {
            engine.run(&q).unwrap();
        }
        engine.export()
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        let export = warm_export();
        let bytes = encode_snapshot(42, &export);
        let (epoch, back) = decode_snapshot(&bytes).unwrap();
        assert_eq!(epoch, 42);
        assert_eq!(back, export);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let export = warm_export();
        let bytes = encode_snapshot(7, &export);
        // Flip one bit in every byte: header flips break magic/version/
        // layout, payload flips break a section checksum. Decoding must
        // fail (or, for flips inside the epoch stamp, change the epoch) —
        // never panic, never silently yield a different export.
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 1;
            match decode_snapshot(&corrupt) {
                Err(_) => {}
                Ok((epoch, back)) => {
                    // Only the unchecksummed header epoch field may decode:
                    // the artifact payloads themselves are covered by CRCs.
                    assert!((8..20).contains(&i), "byte {i} decoded silently");
                    assert!(epoch != 7 || back == export);
                }
            }
        }
    }

    #[test]
    fn truncations_are_detected() {
        let export = warm_export();
        let bytes = encode_snapshot(7, &export);
        for cut in 0..bytes.len() {
            assert!(decode_snapshot(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn atomic_write_and_read_back() {
        let dir = std::env::temp_dir().join(format!(
            "cpdb_snapshot_test_{}_{}",
            std::process::id(),
            line!()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot-7.cpdb");
        let export = warm_export();
        let size = write_snapshot(&path, 7, &export).unwrap();
        assert!(size > 0);
        let (epoch, back) = read_snapshot(&path).unwrap();
        assert_eq!(epoch, 7);
        assert_eq!(back, export);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Rewrites a warm image's version word and checks that decoding
    /// refuses it with `UnsupportedVersion` naming that version.
    fn assert_version_refused(version: u32) {
        let mut bytes = encode_snapshot(7, &warm_export());
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        assert!(
            matches!(
                decode_snapshot(&bytes),
                Err(StoreError::UnsupportedVersion { found }) if found == version
            ),
            "version {version} was not refused"
        );
    }

    #[test]
    fn version_1_images_are_refused() {
        assert_version_refused(1);
    }

    #[test]
    fn version_2_images_are_refused() {
        assert_version_refused(2);
    }

    #[test]
    fn version_3_images_are_refused() {
        assert_version_refused(3);
    }

    #[test]
    fn version_4_images_are_refused() {
        assert_version_refused(4);
    }

    #[test]
    fn version_5_images_are_refused() {
        assert_version_refused(5);
    }

    #[test]
    fn version_6_images_are_refused() {
        assert_version_refused(6);
    }

    #[test]
    fn version_7_images_are_refused() {
        assert_version_refused(7);
    }

    #[test]
    fn future_versions_are_refused() {
        assert_version_refused(99);
    }
}
