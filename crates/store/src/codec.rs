//! Fixed-width little-endian encoding of the plain-data exports
//! ([`cpdb_engine::EngineExport`], [`cpdb_andxor::RawTree`],
//! [`cpdb_andxor::RawDelta`]). Every `f64` travels as its IEEE-754 bit
//! pattern ([`f64::to_bits`]), so round-trips are bit-exact — the property
//! the warm-start conformance gate relies on.

use crate::StoreError;
use cpdb_andxor::{NodeKind, RawDelta, RawNode, RawTree};
use cpdb_engine::{CoClusterExport, EngineExport, RankContextExport};

/// Append-only byte buffer with typed little-endian writers.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> Self {
        ByteWriter::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
}

/// Cursor over a byte slice with typed little-endian readers; running out of
/// bytes or impossible values surface as [`StoreError::Corrupt`].
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Label used in corruption messages ("snapshot section config", …).
    what: &'a str,
}

/// Little-endian `u32` from an exactly-4-byte slice (caller-checked).
pub(crate) fn le_u32(bytes: &[u8]) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(bytes);
    u32::from_le_bytes(b)
}

/// Little-endian `u64` from an exactly-8-byte slice (caller-checked).
pub(crate) fn le_u64(bytes: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(bytes);
    u64::from_le_bytes(b)
}

/// An `f64` from its little-endian bit pattern (exactly 8 bytes,
/// caller-checked).
fn le_f64(bytes: &[u8]) -> f64 {
    f64::from_bits(le_u64(bytes))
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8], what: &'a str) -> Self {
        ByteReader { buf, pos: 0, what }
    }

    fn corrupt(&self, detail: &str) -> StoreError {
        StoreError::Corrupt {
            context: format!("{} at byte {}: {detail}", self.what, self.pos),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.buf.len() - self.pos < n {
            return Err(self.corrupt(&format!(
                "needed {n} bytes, {} left",
                self.buf.len() - self.pos
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub fn get_u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u32(&mut self) -> Result<u32, StoreError> {
        Ok(le_u32(self.take(4)?))
    }

    pub fn get_u64(&mut self) -> Result<u64, StoreError> {
        Ok(le_u64(self.take(8)?))
    }

    /// A `u64` length/count field, sanity-bounded so corrupt data cannot
    /// trigger enormous allocations: each counted element occupies at least
    /// one byte of remaining payload.
    pub fn get_count(&mut self) -> Result<usize, StoreError> {
        let v = self.get_u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if v > remaining {
            return Err(self.corrupt(&format!("count {v} exceeds {remaining} remaining bytes")));
        }
        Ok(v as usize)
    }

    /// A `u64` count that does not directly bound remaining payload (e.g. a
    /// matrix dimension), clamped to an application-supplied ceiling so
    /// corrupt data cannot trigger enormous allocations.
    pub fn get_bounded(&mut self, max: u64) -> Result<usize, StoreError> {
        let v = self.get_u64()?;
        if v > max {
            return Err(self.corrupt(&format!("count {v} exceeds bound {max}")));
        }
        Ok(v as usize)
    }

    pub fn get_f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// `count` fixed-width records of `width` bytes, taken with one bounds
    /// check, so a corrupt count fails before anything is allocated.
    pub fn get_records(
        &mut self,
        count: usize,
        width: usize,
    ) -> Result<std::slice::ChunksExact<'a, u8>, StoreError> {
        let len = count
            .checked_mul(width)
            .ok_or_else(|| self.corrupt(&format!("{count} records of {width} bytes")))?;
        Ok(self.take(len)?.chunks_exact(width))
    }

    pub fn expect_end(&self) -> Result<(), StoreError> {
        if self.pos != self.buf.len() {
            return Err(self.corrupt("trailing bytes after payload"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------- tree

const NODE_LEAF: u8 = 0;
const NODE_AND: u8 = 1;
const NODE_XOR: u8 = 2;

pub fn encode_tree(w: &mut ByteWriter, tree: &RawTree) {
    w.put_usize(tree.nodes.len());
    for node in &tree.nodes {
        match node {
            RawNode::Leaf { key, value } => {
                w.put_u8(NODE_LEAF);
                w.put_u64(*key);
                w.put_f64(*value);
            }
            RawNode::Inner { kind, children } => {
                w.put_u8(match kind {
                    NodeKind::And => NODE_AND,
                    NodeKind::Xor => NODE_XOR,
                });
                w.put_usize(children.len());
                for &(child, p) in children {
                    w.put_usize(child);
                    w.put_f64(p);
                }
            }
        }
    }
    w.put_usize(tree.root);
}

pub fn decode_tree(r: &mut ByteReader<'_>) -> Result<RawTree, StoreError> {
    let n = r.get_count()?;
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = r.get_u8()?;
        nodes.push(match tag {
            NODE_LEAF => RawNode::Leaf {
                key: r.get_u64()?,
                value: r.get_f64()?,
            },
            NODE_AND | NODE_XOR => {
                let kind = if tag == NODE_AND {
                    NodeKind::And
                } else {
                    NodeKind::Xor
                };
                let c = r.get_count()?;
                let mut children = Vec::with_capacity(c);
                for _ in 0..c {
                    let idx = r.get_u64()? as usize;
                    children.push((idx, r.get_f64()?));
                }
                RawNode::Inner { kind, children }
            }
            other => {
                return Err(StoreError::Corrupt {
                    context: format!("unknown tree node tag {other}"),
                })
            }
        });
    }
    let root = r.get_u64()? as usize;
    Ok(RawTree { nodes, root })
}

// ---------------------------------------------------------------- deltas

const DELTA_XOR_EDGE: u8 = 0;
const DELTA_LEAF_VALUE: u8 = 1;
const DELTA_INSERT_ALT: u8 = 2;
const DELTA_REMOVE_ALT: u8 = 3;
const DELTA_INSERT_BLOCK: u8 = 4;

pub fn encode_delta(w: &mut ByteWriter, delta: &RawDelta) {
    match delta {
        RawDelta::XorEdgeProbability {
            xor,
            child,
            probability,
        } => {
            w.put_u8(DELTA_XOR_EDGE);
            w.put_usize(*xor);
            w.put_usize(*child);
            w.put_f64(*probability);
        }
        RawDelta::LeafValue { leaf, value } => {
            w.put_u8(DELTA_LEAF_VALUE);
            w.put_usize(*leaf);
            w.put_f64(*value);
        }
        RawDelta::InsertAlternative {
            xor,
            key,
            value,
            probability,
        } => {
            w.put_u8(DELTA_INSERT_ALT);
            w.put_usize(*xor);
            w.put_u64(*key);
            w.put_f64(*value);
            w.put_f64(*probability);
        }
        RawDelta::RemoveAlternative { xor, leaf } => {
            w.put_u8(DELTA_REMOVE_ALT);
            w.put_usize(*xor);
            w.put_usize(*leaf);
        }
        RawDelta::InsertTupleBlock {
            under,
            key,
            alternatives,
        } => {
            w.put_u8(DELTA_INSERT_BLOCK);
            w.put_usize(*under);
            w.put_u64(*key);
            w.put_usize(alternatives.len());
            for &(value, probability) in alternatives {
                w.put_f64(value);
                w.put_f64(probability);
            }
        }
    }
}

pub fn decode_delta(r: &mut ByteReader<'_>) -> Result<RawDelta, StoreError> {
    let tag = r.get_u8()?;
    Ok(match tag {
        DELTA_XOR_EDGE => RawDelta::XorEdgeProbability {
            xor: r.get_u64()? as usize,
            child: r.get_u64()? as usize,
            probability: r.get_f64()?,
        },
        DELTA_LEAF_VALUE => RawDelta::LeafValue {
            leaf: r.get_u64()? as usize,
            value: r.get_f64()?,
        },
        DELTA_INSERT_ALT => RawDelta::InsertAlternative {
            xor: r.get_u64()? as usize,
            key: r.get_u64()?,
            value: r.get_f64()?,
            probability: r.get_f64()?,
        },
        DELTA_REMOVE_ALT => RawDelta::RemoveAlternative {
            xor: r.get_u64()? as usize,
            leaf: r.get_u64()? as usize,
        },
        DELTA_INSERT_BLOCK => {
            let under = r.get_u64()? as usize;
            let key = r.get_u64()?;
            let n = r.get_count()?;
            let mut alternatives = Vec::with_capacity(n);
            for _ in 0..n {
                let value = r.get_f64()?;
                alternatives.push((value, r.get_f64()?));
            }
            RawDelta::InsertTupleBlock {
                under,
                key,
                alternatives,
            }
        }
        other => {
            return Err(StoreError::Corrupt {
                context: format!("unknown delta tag {other}"),
            })
        }
    })
}

// ---------------------------------------------------------------- config

pub fn encode_config(w: &mut ByteWriter, e: &EngineExport) {
    w.put_u64(e.seed);
    w.put_usize(e.k_range.0);
    w.put_usize(e.k_range.1);
    w.put_usize(e.threads);
    match &e.groupby {
        None => w.put_u8(0),
        Some(rows) => {
            w.put_u8(1);
            w.put_usize(rows.len());
            w.put_usize(rows.first().map_or(0, Vec::len));
            for row in rows {
                for &p in row {
                    w.put_f64(p);
                }
            }
        }
    }
}

/// Decodes the config section into an [`EngineExport`] shell with empty
/// artifact fields; the artifact sections fill them in afterwards.
pub fn decode_config(r: &mut ByteReader<'_>, tree: RawTree) -> Result<EngineExport, StoreError> {
    let seed = r.get_u64()?;
    let k_lo = r.get_u64()? as usize;
    let k_hi = r.get_u64()? as usize;
    let threads = r.get_u64()? as usize;
    let groupby = match r.get_u8()? {
        0 => None,
        1 => {
            let rows = r.get_count()?;
            let cols = r.get_bounded(1 << 24)?;
            let mut matrix = Vec::with_capacity(rows);
            for _ in 0..rows {
                let mut row = Vec::with_capacity(cols);
                for _ in 0..cols {
                    row.push(r.get_f64()?);
                }
                matrix.push(row);
            }
            Some(matrix)
        }
        other => {
            return Err(StoreError::Corrupt {
                context: format!("unknown group-by presence tag {other}"),
            })
        }
    };
    Ok(EngineExport {
        tree,
        seed,
        k_range: (k_lo, k_hi),
        threads,
        groupby,
        context: None,
        cocluster: None,
        marginals: None,
    })
}

// ---------------------------------------------------------------- artifacts

/// The rank context: its `k`, a count, then that many `f64`s (the
/// row-major table over the tree's sorted keys).
pub fn encode_context(w: &mut ByteWriter, ctx: &RankContextExport) {
    w.put_usize(ctx.k);
    put_f64s(w, &ctx.rows);
}

pub fn decode_context(r: &mut ByteReader<'_>) -> Result<RankContextExport, StoreError> {
    Ok(RankContextExport {
        k: r.get_bounded(1 << 24)?,
        rows: get_f64s(r)?,
    })
}

/// The co-clustering triangle: a count, then that many `f64`s.
pub fn encode_cocluster(w: &mut ByteWriter, c: &CoClusterExport) {
    put_f64s(w, &c.weights);
}

pub fn decode_cocluster(r: &mut ByteReader<'_>) -> Result<CoClusterExport, StoreError> {
    Ok(CoClusterExport {
        weights: get_f64s(r)?,
    })
}

/// A bare `f64` array: a count, then that many `f64`s (the marginal
/// section is one).
pub fn put_f64s(w: &mut ByteWriter, values: &[f64]) {
    w.put_usize(values.len());
    for &v in values {
        w.put_f64(v);
    }
}

pub fn get_f64s(r: &mut ByteReader<'_>) -> Result<Vec<f64>, StoreError> {
    let n = r.get_count()?;
    Ok(r.get_records(n, 8)?.map(le_f64).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_and_delta_round_trip() {
        let tree = RawTree {
            nodes: vec![
                RawNode::Leaf {
                    key: 1,
                    value: 30.5,
                },
                RawNode::Leaf {
                    key: 2,
                    value: -0.0,
                },
                RawNode::Inner {
                    kind: NodeKind::Xor,
                    children: vec![(0, 0.4), (1, 0.3)],
                },
                RawNode::Inner {
                    kind: NodeKind::And,
                    children: vec![(2, 1.0)],
                },
            ],
            root: 3,
        };
        let mut w = ByteWriter::new();
        encode_tree(&mut w, &tree);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "tree");
        let back = decode_tree(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back, tree);

        let deltas = vec![
            RawDelta::XorEdgeProbability {
                xor: 2,
                child: 0,
                probability: 0.45,
            },
            RawDelta::LeafValue {
                leaf: 1,
                value: f64::MIN_POSITIVE,
            },
            RawDelta::InsertAlternative {
                xor: 2,
                key: 2,
                value: 1e300,
                probability: 0.25,
            },
            RawDelta::RemoveAlternative { xor: 2, leaf: 1 },
            RawDelta::InsertTupleBlock {
                under: 3,
                key: 9,
                alternatives: vec![(50.0, 0.25), (45.0, 0.5)],
            },
        ];
        for delta in &deltas {
            let mut w = ByteWriter::new();
            encode_delta(&mut w, delta);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes, "delta");
            assert_eq!(&decode_delta(&mut r).unwrap(), delta);
            r.expect_end().unwrap();
        }
    }

    #[test]
    fn truncated_payloads_are_corrupt_not_panics() {
        let mut w = ByteWriter::new();
        encode_delta(
            &mut w,
            &RawDelta::InsertTupleBlock {
                under: 3,
                key: 9,
                alternatives: vec![(50.0, 0.25)],
            },
        );
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut], "delta");
            assert!(
                matches!(decode_delta(&mut r), Err(StoreError::Corrupt { .. })),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn config_layout_is_seed_k_range_threads_then_groupby() {
        let tree = RawTree {
            nodes: vec![RawNode::Leaf { key: 1, value: 1.0 }],
            root: 0,
        };
        for groupby in [None, Some(vec![vec![0.25, 0.75]])] {
            let config = EngineExport {
                tree: tree.clone(),
                seed: 7,
                k_range: (1, 3),
                threads: 2,
                groupby: groupby.clone(),
                context: None,
                cocluster: None,
                marginals: None,
            };
            let mut w = ByteWriter::new();
            encode_config(&mut w, &config);
            let bytes = w.into_bytes();
            // Seed, k-range, threads, then the group-by presence tag and
            // (when present) its shape and row-major probabilities.
            let mut layout = ByteWriter::new();
            for field in [7u64, 1, 3, 2] {
                layout.put_u64(field);
            }
            match &groupby {
                None => layout.put_u8(0),
                Some(rows) => {
                    layout.put_u8(1);
                    layout.put_usize(rows.len());
                    layout.put_usize(rows[0].len());
                    for &p in rows.iter().flatten() {
                        layout.put_f64(p);
                    }
                }
            }
            assert_eq!(bytes, layout.into_bytes());
            let mut r = ByteReader::new(&bytes, "config");
            assert_eq!(decode_config(&mut r, tree.clone()).unwrap(), config);
            r.expect_end().unwrap();
        }
    }

    #[test]
    fn absurd_counts_are_rejected_before_allocation() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "count");
        assert!(matches!(r.get_count(), Err(StoreError::Corrupt { .. })));
    }
}
