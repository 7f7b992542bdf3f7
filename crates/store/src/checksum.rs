//! CRC-32 (IEEE 802.3 polynomial), the per-section / per-record integrity
//! check of the snapshot and WAL formats. Table-driven, slicing by 16 bytes
//! (sixteen tables built at compile time) — no dependencies.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, so sixteen table lookups
/// advance the CRC over sixteen input bytes at once.
const fn make_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = make_tables();

/// The CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_parts(&[bytes])
}

/// The CRC-32 of the concatenation of `parts`, without concatenating them.
pub fn crc32_parts(parts: &[&[u8]]) -> u32 {
    !parts.iter().fold(!0u32, |crc, part| update(crc, part))
}

/// Advances the (pre-inverted) CRC register over `bytes`.
fn update(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(16);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = TABLES[15][(lo & 0xFF) as usize]
            ^ TABLES[14][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[13][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[12][(lo >> 24) as usize];
        for (k, &b) in c[4..].iter().enumerate() {
            crc ^= TABLES[11 - k][b as usize];
        }
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sliced_tables_match_the_bitwise_definition() {
        fn bitwise(bytes: &[u8]) -> u32 {
            let mut crc = !0u32;
            for &b in bytes {
                crc ^= b as u32;
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        (crc >> 1) ^ POLY
                    } else {
                        crc >> 1
                    };
                }
            }
            !crc
        }
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 131 + 7) as u8).collect();
        for len in (0..=40).chain([511, 1000]) {
            for start in 0..3 {
                let slice = &data[start..start + len.min(data.len() - start)];
                assert_eq!(crc32(slice), bitwise(slice), "len {len} start {start}");
            }
        }
    }

    #[test]
    fn parts_match_the_concatenation() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 37 + 1) as u8).collect();
        for cut in [0, 1, 7, 8, 9, 150, 299, 300] {
            let (a, b) = data.split_at(cut);
            assert_eq!(crc32_parts(&[a, b]), crc32(&data), "cut {cut}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"consensus answers over probabilistic databases".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "byte {byte} bit {bit}");
            }
        }
    }
}
