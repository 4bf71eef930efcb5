//! The CRC-32C kernels behind [`crate::buf::crc32c`]. On x86-64 with SSE4.2
//! (std caches the feature check) it runs the `crc32` instruction over eight
//! bytes at a time; on every other CPU it runs the table-driven slice-by-8
//! loop, [`crc32c_table`]. Both return the same value for every input, so the
//! choice never shows in a stored or framed byte.
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

/// CRC-32C (Castagnoli polynomial): the one checksum under the wire frames,
/// WAL data frames, bookie entry envelopes and LTS blocks.
pub fn crc32c(data: &[u8]) -> u32 {
    match crc32c_sse42(data) {
        Some(crc) => crc,
        None => crc32c_table(data),
    }
}

/// The hardware kernel, or `None` when the CPU lacks SSE4.2.
#[cfg(target_arch = "x86_64")]
#[expect(
    unsafe_code,
    reason = "calling a #[target_feature] kernel needs the CPU check the compiler cannot see"
)]
fn crc32c_sse42(data: &[u8]) -> Option<u32> {
    if !std::is_x86_feature_detected!("sse4.2") {
        return None;
    }
    // SAFETY: `is_x86_feature_detected!("sse4.2")` just returned true, so the
    // CPU executes the `crc32` instructions the kernel is compiled to.
    Some(unsafe { sse42_kernel(data) })
}

#[cfg(not(target_arch = "x86_64"))]
fn crc32c_sse42(_data: &[u8]) -> Option<u32> {
    None
}

/// One stream of `crc32` instructions: a quadword per step, then the tail a
/// byte at a time. The instruction steps the same reflected Castagnoli CRC
/// as the tables; the inversions around it are the table kernel's.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn sse42_kernel(data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let (words, tail) = data.as_chunks::<8>();
    let mut crc = u64::from(!0u32);
    for word in words {
        crc = _mm_crc32_u64(crc, u64::from_le_bytes(*word));
    }
    // The instruction zero-extends its 32-bit result into the quadword.
    let mut crc = crc as u32;
    for &b in tail {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

/// The portable slice-by-8 kernel: what [`crc32c`] runs on a CPU without
/// SSE4.2 and on every architecture but x86-64.
fn crc32c_table(data: &[u8]) -> u32 {
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

    /// The bit-at-a-time loop the table kernel replaced, kept as the
    /// reference both kernels are checked against.
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

    /// Every kernel this CPU can run, by name. On x86-64 `crc32c` never
    /// reaches the table kernel, so the tests call both directly.
    fn kernels(data: &[u8]) -> Vec<(&'static str, u32)> {
        let mut out = vec![("table", crc32c_table(data)), ("dispatch", crc32c(data))];
        if let Some(crc) = crc32c_sse42(data) {
            out.push(("sse4.2", crc));
        }
        out
    }

    #[test]
    fn the_hardware_kernel_runs_on_every_x86_64_cpu_with_sse42() {
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            crc32c_sse42(b"").is_some(),
            std::is_x86_feature_detected!("sse4.2")
        );
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(crc32c_sse42(b""), None);
    }

    #[test]
    fn crc32c_known_vectors() {
        let ascending: Vec<u8> = (0x00..=0x1F).collect();
        let descending: Vec<u8> = (0x00..=0x1F).rev().collect();
        let vectors: [(&[u8], u32); 6] = [
            // RFC 3720 B.4.
            (&[0x00; 32], 0x8A91_36AA),
            (&[0xFF; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
            (&descending, 0x113F_DB5C),
            (b"123456789", 0xE306_9283),
            (b"", 0),
        ];
        for (data, want) in vectors {
            for (kernel, got) in kernels(data) {
                assert_eq!(got, want, "{kernel} on {data:02x?}");
            }
        }
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
    fn every_kernel_matches_the_bitwise_reference() {
        // Every length 0..=64 at every start alignment 0..8: covers the
        // empty input, a bare remainder, and whole words plus each remainder.
        let base = noise(7, 64 + 8);
        for align in 0..8 {
            for len in 0..=64 {
                let s = &base[align..align + len];
                let want = crc32c_bitwise(s);
                for (kernel, got) in kernels(s) {
                    assert_eq!(got, want, "{kernel} align {align} len {len}");
                }
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
            let want = crc32c_bitwise(&buf);
            for (kernel, got) in kernels(&buf) {
                assert_eq!(got, want, "{kernel} seed {seed} len {len}");
            }
        }
    }

    #[test]
    fn crc_detects_corruption() {
        let a = crc32c(b"some frame payload");
        let b = crc32c(b"some frame paylobd");
        assert_ne!(a, b);
    }
}
