//! The checksummed on-chunk block format (ROADMAP item 2).
//!
//! A chunk's physical bytes are a sequence of *blocks*, each one append
//! written by [`crate::segment::ChunkedSegmentStorage`]:
//!
//! ```text
//! [u32 payload_len][payload bytes][u32 crc32c(payload)]
//! ```
//!
//! When a chunk fills (or its segment is sealed) it is *finalized* by
//! appending a footer — a block whose length word carries [`FOOTER_FLAG`]
//! and whose payload is the chunk's block index plus a whole-chunk digest:
//!
//! ```text
//! [u32 FOOTER_FLAG | payload_len]
//!   [u32 FOOTER_MAGIC][u32 block_count]
//!   [u32 len][u32 crc]  * block_count
//!   [u32 digest = crc32c(index bytes)]
//! [u32 crc32c(payload)]
//! ```
//!
//! Every decode path here uses fully checked slicing and arithmetic (the
//! clippy restriction lints below hold the whole file to it): corrupt or
//! truncated bytes produce a typed [`CorruptBlock`], never a panic. Callers
//! cross-check the decoded trailer CRC against the CRC recorded in segment
//! metadata, so a self-consistent-but-wrong block (corrupted payload *and*
//! trailer) is still detected.

#![warn(
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation
)]

use bytes::{BufMut, Bytes, BytesMut};

use pravega_common::buf::crc32c;

/// Bytes a block adds around its payload (u32 length + u32 CRC trailer).
pub const BLOCK_OVERHEAD: u64 = 8;

/// High bit of the length word: set on the footer block only. Payload
/// lengths are therefore capped below 2 GiB, far above any chunk size.
pub const FOOTER_FLAG: u32 = 0x8000_0000;

/// First word of a footer payload ("LTSF").
pub const FOOTER_MAGIC: u32 = 0x4C54_5346;

/// A block's `(payload_len, crc32c)` pair as recorded in segment metadata
/// and in the chunk footer.
pub type BlockInfo = (u32, u32);

/// Bytes at the given physical offset within a chunk failed structural or
/// checksum validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptBlock {
    /// Physical offset within the chunk of the corrupt block.
    pub offset: u64,
}

/// Encodes one data block around `payload`.
#[expect(
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    reason = "a payload is at most one chunk (`max_chunk_bytes`, 4 MiB by default), far below \
              the 2 GiB the length word leaves below FOOTER_FLAG; a slice plus 8 cannot \
              overflow usize"
)]
pub fn encode_block(payload: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(payload.len() + BLOCK_OVERHEAD as usize);
    buf.put_u32(payload.len() as u32);
    buf.put_slice(payload);
    buf.put_u32(crc32c(payload));
    buf.freeze()
}

/// The crc32c an encoded block carries in its trailer: what
/// [`encode_block`] computed, read back instead of checksumming the payload
/// a second time.
pub fn block_crc(block: &[u8]) -> u32 {
    block
        .last_chunk()
        .map_or(0, |trailer| u32::from_be_bytes(*trailer))
}

/// The whole-chunk digest: crc32c over the serialized block index. crc32c
/// of concatenated payloads cannot be derived from per-block CRCs, so the
/// digest-of-digests stands in for it — any block change changes its CRC,
/// which changes the digest.
pub fn chunk_digest(blocks: &[BlockInfo]) -> u32 {
    crc32c(&index_bytes(blocks))
}

#[expect(
    clippy::arithmetic_side_effects,
    reason = "8 bytes per block is the size of `blocks` itself, which Rust caps at isize::MAX"
)]
fn index_bytes(blocks: &[BlockInfo]) -> BytesMut {
    let mut idx = BytesMut::with_capacity(blocks.len() * 8);
    for &(len, crc) in blocks {
        idx.put_u32(len);
        idx.put_u32(crc);
    }
    idx
}

/// Encodes the footer block for a finalized chunk.
#[expect(
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    reason = "a chunk holds at most `max_chunk_bytes` blocks of one byte or more, so its \
              16 + 8-per-block footer stays far below the 2 GiB below FOOTER_FLAG"
)]
pub fn encode_footer(blocks: &[BlockInfo]) -> Bytes {
    let mut payload = BytesMut::with_capacity(12 + blocks.len() * 8);
    payload.put_u32(FOOTER_MAGIC);
    payload.put_u32(blocks.len() as u32);
    payload.put_slice(&index_bytes(blocks));
    payload.put_u32(chunk_digest(blocks));
    let mut buf = BytesMut::with_capacity(payload.len() + BLOCK_OVERHEAD as usize);
    buf.put_u32(FOOTER_FLAG | payload.len() as u32);
    buf.put_slice(&payload);
    buf.put_u32(crc32c(&payload));
    buf.freeze()
}

/// Physical bytes occupied by the given data blocks (framing included,
/// footer excluded).
#[expect(
    clippy::arithmetic_side_effects,
    reason = "each term is a u32 length plus 8, summed over one chunk's blocks: far below \
              u64::MAX"
)]
pub fn physical_data_len(blocks: &[BlockInfo]) -> u64 {
    blocks
        .iter()
        .map(|&(len, _)| BLOCK_OVERHEAD + len as u64)
        .sum()
}

/// Physical bytes the footer for `block_count` blocks occupies.
#[expect(
    clippy::arithmetic_side_effects,
    reason = "`block_count` is the length of one chunk's block list, at most \
              `max_chunk_bytes`"
)]
pub fn footer_physical_len(block_count: usize) -> u64 {
    BLOCK_OVERHEAD + 12 + 8 * block_count as u64
}

fn read_u32_at(bytes: &[u8], pos: usize) -> Option<u32> {
    let end = pos.checked_add(4)?;
    let s = bytes.get(pos..end)?;
    Some(u32::from_be_bytes(s.try_into().ok()?))
}

/// Decodes and verifies the data block at physical `offset` within `chunk`,
/// returning its payload. The block must match `expected` — the
/// `(len, crc)` recorded in segment metadata at ack time — *and* its own
/// trailer CRC; any disagreement is corruption.
pub fn decode_block(chunk: &[u8], offset: u64, expected: BlockInfo) -> Result<&[u8], CorruptBlock> {
    let corrupt = CorruptBlock { offset };
    let (expected_len, expected_crc) = expected;
    let start = usize::try_from(offset).map_err(|_| corrupt)?;
    let declared = read_u32_at(chunk, start).ok_or(corrupt)?;
    if declared & FOOTER_FLAG != 0 || declared != expected_len {
        return Err(corrupt);
    }
    let payload_start = start.checked_add(4).ok_or(corrupt)?;
    let payload_end = payload_start
        .checked_add(declared as usize)
        .ok_or(corrupt)?;
    let payload = chunk.get(payload_start..payload_end).ok_or(corrupt)?;
    let stored = read_u32_at(chunk, payload_end).ok_or(corrupt)?;
    let actual = crc32c(payload);
    if stored != actual || actual != expected_crc {
        return Err(corrupt);
    }
    Ok(payload)
}

/// Decodes and verifies the footer at physical `offset` within `chunk`
/// against the block index recorded in segment metadata.
pub fn decode_footer(chunk: &[u8], offset: u64, blocks: &[BlockInfo]) -> Result<(), CorruptBlock> {
    let corrupt = CorruptBlock { offset };
    let start = usize::try_from(offset).map_err(|_| corrupt)?;
    let word = read_u32_at(chunk, start).ok_or(corrupt)?;
    if word & FOOTER_FLAG == 0 {
        return Err(corrupt);
    }
    let declared = word & !FOOTER_FLAG;
    let expected_payload = blocks
        .len()
        .checked_mul(8)
        .and_then(|n| n.checked_add(12))
        .ok_or(corrupt)?;
    if u32::try_from(expected_payload).map_err(|_| corrupt)? != declared {
        return Err(corrupt);
    }
    let payload_start = start.checked_add(4).ok_or(corrupt)?;
    let payload_end = payload_start.checked_add(expected_payload).ok_or(corrupt)?;
    let payload = chunk.get(payload_start..payload_end).ok_or(corrupt)?;
    let stored = read_u32_at(chunk, payload_end).ok_or(corrupt)?;
    if stored != crc32c(payload) {
        return Err(corrupt);
    }
    if read_u32_at(payload, 0) != Some(FOOTER_MAGIC) {
        return Err(corrupt);
    }
    let count = read_u32_at(payload, 4).ok_or(corrupt)?;
    if u32::try_from(blocks.len()).map_err(|_| corrupt)? != count {
        return Err(corrupt);
    }
    for (i, &(len, crc)) in blocks.iter().enumerate() {
        let base = i
            .checked_mul(8)
            .and_then(|n| n.checked_add(8))
            .ok_or(corrupt)?;
        if read_u32_at(payload, base) != Some(len) {
            return Err(corrupt);
        }
        let crc_pos = base.checked_add(4).ok_or(corrupt)?;
        if read_u32_at(payload, crc_pos) != Some(crc) {
            return Err(corrupt);
        }
    }
    let digest_pos = blocks
        .len()
        .checked_mul(8)
        .and_then(|n| n.checked_add(8))
        .ok_or(corrupt)?;
    if read_u32_at(payload, digest_pos) != Some(chunk_digest(blocks)) {
        return Err(corrupt);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(payload: &[u8]) -> BlockInfo {
        (u32::try_from(payload.len()).unwrap(), crc32c(payload))
    }

    #[test]
    fn block_crc_reads_back_the_trailer() {
        for payload in [&b""[..], b"x", b"hello world"] {
            assert_eq!(block_crc(&encode_block(payload)), crc32c(payload));
        }
    }

    #[test]
    fn block_roundtrip() {
        let frame = encode_block(b"hello world");
        assert_eq!(frame.len() as u64, 11 + BLOCK_OVERHEAD);
        let payload = decode_block(&frame, 0, info(b"hello world")).unwrap();
        assert_eq!(payload, b"hello world");
    }

    #[test]
    fn every_single_bit_flip_in_a_block_is_detected() {
        let frame = encode_block(b"payload under test");
        let expected = info(b"payload under test");
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.to_vec();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_block(&bad, 0, expected).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncated_block_is_detected_not_panicking() {
        let frame = encode_block(b"some payload");
        let expected = info(b"some payload");
        for cut in 0..frame.len() {
            assert!(
                decode_block(&frame[..cut], 0, expected).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn self_consistent_but_wrong_block_is_caught_by_metadata_crc() {
        // An attacker (or a buggy backend) rewrites the whole block with a
        // valid internal CRC; the metadata cross-check still catches it.
        let frame = encode_block(b"replaced bytes!");
        assert!(decode_block(&frame, 0, info(b"original bytes!")).is_err());
    }

    #[test]
    fn footer_roundtrip_and_corruption() {
        let blocks = vec![info(b"abc"), info(b"defgh"), info(b"")];
        let footer = encode_footer(&blocks);
        assert_eq!(footer.len() as u64, footer_physical_len(blocks.len()));
        decode_footer(&footer, 0, &blocks).unwrap();
        for byte in 0..footer.len() {
            for bit in 0..8 {
                let mut bad = footer.to_vec();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_footer(&bad, 0, &blocks).is_err(),
                    "footer flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
        // A footer for a different index is rejected.
        assert!(decode_footer(&footer, 0, &blocks[..2]).is_err());
    }

    #[test]
    fn blocks_decode_at_their_physical_offsets() {
        let mut chunk = Vec::new();
        let payloads: [&[u8]; 3] = [b"first", b"second block", b"x"];
        let mut blocks = Vec::new();
        for p in payloads {
            chunk.extend_from_slice(&encode_block(p));
            blocks.push(info(p));
        }
        chunk.extend_from_slice(&encode_footer(&blocks));
        let mut off = 0u64;
        for (i, p) in payloads.iter().enumerate() {
            assert_eq!(decode_block(&chunk, off, blocks[i]).unwrap(), *p);
            off += BLOCK_OVERHEAD + p.len() as u64;
        }
        assert_eq!(off, physical_data_len(&blocks));
        decode_footer(&chunk, off, &blocks).unwrap();
    }

    #[test]
    fn corrupt_error_reports_the_block_offset() {
        let mut chunk = encode_block(b"aaaa").to_vec();
        let second_at = chunk.len();
        chunk.extend_from_slice(&encode_block(b"bbbb"));
        chunk[second_at..][5] ^= 0x01;
        let err = decode_block(&chunk, second_at as u64, info(b"bbbb")).unwrap_err();
        assert_eq!(err.offset, second_at as u64);
    }
}
