//! The CRC-32C kernel: table-driven slice-by-8, one code path on every
//! platform. Callers reach it as [`crate::buf::crc32c`].
//!
//! Every index below is a byte into a 256-entry table or a constant: nothing
//! here is derived from a length or offset in the input, which is why this
//! file does not switch on the codecs' clippy restriction lints.

const POLY: u32 = 0x82F6_3B78; // reflected Castagnoli

/// Slice-by-8 lookup tables, generated at compile time: `TABLES[0]` is
/// the classic byte-at-a-time table and `TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes, so eight table reads advance the CRC
/// over eight input bytes at once.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32C (Castagnoli polynomial, table-driven software implementation):
/// the one checksum under the wire frames, WAL data frames, bookie entry
/// envelopes and LTS blocks.
pub fn crc32c(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let (words, tail) = data.as_chunks::<8>();
    for word in words {
        let x = (u64::from_le_bytes(*word) ^ crc as u64).to_le_bytes();
        crc = t[7][x[0] as usize]
            ^ t[6][x[1] as usize]
            ^ t[5][x[2] as usize]
            ^ t[4][x[3] as usize]
            ^ t[3][x[4] as usize]
            ^ t[2][x[5] as usize]
            ^ t[1][x[6] as usize]
            ^ t[0][x[7] as usize];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t[0][(crc as u8 ^ b) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32c_known_vectors() {
        // RFC 3720 test vector: 32 bytes of zeros.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        // "123456789"
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
    }

    /// The bit-at-a-time loop the table kernel replaced, kept as the
    /// reference the tables are checked against.
    fn crc32c_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    /// xorshift64*: seeded, dependency-free bytes for the property test.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32c_table_loop_matches_bitwise_reference() {
        // Every length 0..=64 at every start alignment 0..8: covers the
        // empty input, a bare remainder, and whole words plus each remainder.
        let base = noise(7, 64 + 8);
        for align in 0..8 {
            for len in 0..=64 {
                let s = &base[align..align + len];
                assert_eq!(crc32c(s), crc32c_bitwise(s), "align {align} len {len}");
            }
        }
        // Seeded random buffers up to 1 MiB.
        for (seed, len) in [
            (1u64, 65usize),
            (2, 1_000),
            (3, 4_096),
            (4, 65_537),
            (5, 262_144 + 3),
            (6, 1 << 20),
        ] {
            let buf = noise(seed, len);
            assert_eq!(crc32c(&buf), crc32c_bitwise(&buf), "seed {seed} len {len}");
        }
    }

    #[test]
    fn crc_detects_corruption() {
        let a = crc32c(b"some frame payload");
        let b = crc32c(b"some frame paylobd");
        assert_ne!(a, b);
    }
}
